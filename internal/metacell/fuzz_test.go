package metacell

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/volume"
)

// fuzzLayout is a 2×2×2 grid of span-3 metacells: records of 32, 60 and 116
// bytes in the three sample formats, small enough for the fuzzer to hit the
// right length often.
func fuzzLayout(f volume.Format) Layout {
	return Layout{Span: 3, Fmt: f, Nx: 5, Ny: 5, Nz: 5, Mx: 2, My: 2, Mz: 2}
}

// FuzzDecodeRecordInto holds the record decoder — the first thing to touch
// bytes read off a node's disk — to its contract under arbitrary input, in
// each sample format: it returns an error and leaves the Meta alone, or it
// writes the whole Meta (an ID inside the layout, Span³ samples that encode
// back to the input bytes). It never panics, and it allocates the layout's
// Span³ samples at most, whatever the bytes say.
func FuzzDecodeRecordInto(f *testing.F) {
	formats := []volume.Format{volume.U8, volume.U16, volume.F32}
	for _, fm := range formats {
		l := fuzzLayout(fm)
		samples := make([]float32, l.Span*l.Span*l.Span)
		for i := range samples {
			samples[i] = float32(i * 7 % 251)
		}
		good := EncodeRecord(l, 5, 3, samples)
		f.Add(good)
		f.Add(good[:len(good)-1])                      // one byte short
		f.Add(append(append([]byte(nil), good...), 0)) // one byte long
		outside := append([]byte(nil), good...)
		binary.LittleEndian.PutUint32(outside, uint32(l.Count())) // first ID past the grid
		f.Add(outside)
		binary.LittleEndian.PutUint32(outside, math.MaxUint32)
		f.Add(outside)
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, fm := range formats {
			l := fuzzLayout(fm)
			n := l.Span * l.Span * l.Span

			var fresh Meta
			err := DecodeRecordInto(l, data, &fresh)
			if err != nil {
				if fresh.ID != 0 || fresh.VMin != 0 || fresh.Samples != nil {
					t.Fatalf("%v: rejected record (%v) still wrote %+v", fm, err, fresh)
				}
				// A warmed-up Meta is left alone too.
				warm := Meta{ID: 77, VMin: -1, Samples: make([]float32, n)}
				warm.Samples[0] = 42
				if DecodeRecordInto(l, data, &warm) == nil {
					t.Fatalf("%v: same bytes rejected, then accepted", fm)
				}
				if warm.ID != 77 || warm.VMin != -1 || warm.Samples[0] != 42 {
					t.Fatalf("%v: rejected record overwrote a reused Meta: %+v", fm, warm)
				}
				continue
			}
			if len(data) != l.RecordSize() {
				t.Fatalf("%v: accepted %d bytes, a record is %d", fm, len(data), l.RecordSize())
			}
			if int(fresh.ID) >= l.Count() {
				t.Fatalf("%v: accepted metacell %d of %d", fm, fresh.ID, l.Count())
			}
			if len(fresh.Samples) != n || cap(fresh.Samples) != n {
				t.Fatalf("%v: %d samples (cap %d), layout has %d", fm, len(fresh.Samples), cap(fresh.Samples), n)
			}
			if back := EncodeRecord(l, fresh.ID, fresh.VMin, fresh.Samples); !bytes.Equal(back, data) {
				t.Fatalf("%v: decoded record does not encode back to its bytes", fm)
			}
		}
	})
}

// FuzzWordKernels holds the extractor's two word-at-a-time kernels — sameRows,
// which decides a metacell is constant where it lies in the plane ring, and
// minMax, which takes a kept record's interval — to sample-at-a-time loops, in
// each format, on arbitrary bytes laid out as arbitrary rows: any row length
// from one sample up (so both the word path and the short-row path, and every
// tail overlap) and any stride.
func FuzzWordKernels(f *testing.F) {
	constant := bytes.Repeat([]byte{0x80}, 160)
	f.Add(constant, uint8(8), uint8(3))
	for _, at := range []int{0, 7, 8, 9, 71, 159} { // one sample off: in a first word, a tail, a last row
		off := bytes.Clone(constant)
		off[at] ^= 0x01
		f.Add(off, uint8(8), uint8(0))
		f.Add(off, uint8(2), uint8(1))
	}
	f.Add([]byte{0, 255, 127, 128, 1, 254, 129, 126, 0x7f, 0x80, 0xff, 0x00, 0xc0, 0x7f, 0x80, 0xff, 0, 0xc0, 0xff, 0x7f}, uint8(1), uint8(0))
	f.Add([]byte{0, 0, 0xc0, 0x7f, 1, 0, 0xc0, 0x7f, 0, 0, 0, 0x80, 0, 0, 0, 0}, uint8(0), uint8(0)) // f32: two NaNs, -0, +0
	f.Fuzz(checkWordKernels)
}

// TestWordKernelsOnRandomBodies runs FuzzWordKernels' check over bodies a
// fuzzer is slow to find: long, nearly constant, the odd sample anywhere.
func TestWordKernelsOnRandomBodies(t *testing.T) {
	r := rng.New(24)
	for round := 0; round < 2000; round++ {
		body := bytes.Repeat([]byte{byte(r.Intn(256))}, 8+r.Intn(1500))
		for k := r.Intn(4); k > 0; k-- {
			body[r.Intn(len(body))] = byte(r.Intn(256))
		}
		if round%4 == 0 {
			for i := range body {
				body[i] = byte(r.Intn(256))
			}
		}
		checkWordKernels(t, body, uint8(r.Intn(256)), uint8(r.Intn(256)))
	}
}

// checkWordKernels reads data as rows of 1 + samples%12 samples, gap%5
// samples apart, in each format.
func checkWordKernels(t *testing.T, data []byte, samples, gap uint8) {
	for _, fm := range []volume.Format{volume.U8, volume.U16, volume.F32} {
		w := fm.Bytes()
		n := (1 + int(samples)%12) * w
		stride := n + int(gap)%5*w
		if len(data) >= n {
			rows := 1 + (len(data)-n)/stride
			want := true
			for r := 0; r < rows; r++ {
				for i := 0; i < n; i++ {
					want = want && data[r*stride+i] == data[i%w]
				}
			}
			if got := sameRows(data, 0, stride, rows, n, broadcast(data[:w])); got != want {
				t.Fatalf("%v: sameRows(%d rows of %d bytes, stride %d) = %v, the byte loop says %v", fm, rows, n, stride, got, want)
			}
		}

		body := data[:len(data)/w*w]
		if len(body) < 8 {
			continue // a record's body is at least 2³ samples
		}
		lo, hi := minMax(body, fm)
		wantLo, wantHi := float32(math.Inf(1)), float32(math.Inf(-1))
		for i := 0; i < len(body); i += w {
			v := getScalar(body[i:], fm)
			if v < wantLo {
				wantLo = v
			}
			if v > wantHi {
				wantHi = v
			}
		}
		if math.Float32bits(lo) != math.Float32bits(wantLo) || math.Float32bits(hi) != math.Float32bits(wantHi) {
			t.Fatalf("%v: minMax of %d bytes = [%v, %v], the sample loop says [%v, %v]", fm, len(body), lo, hi, wantLo, wantHi)
		}
	}
}
