package metacell

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

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
