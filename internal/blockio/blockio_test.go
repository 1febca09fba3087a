package blockio

import (
	"bytes"
	"errors"
	"math/bits"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

// memStore returns a memory store holding image, appended as records of
// uneven lengths (an empty one among them) so that reads cross from record
// to record.
func memStore(image []byte) *Store {
	w := NewWriter()
	for len(image) > 0 {
		n := min(len(image), 1000+len(image)%777)
		w.Append(image[:n])
		w.Append(nil)
		image = image[n:]
	}
	return w.Store()
}

// eachBacking runs f on a memory store and on a file store over the same
// image: the accounting is written once, and holds for both.
func eachBacking(t *testing.T, image []byte, f func(t *testing.T, s *Store)) {
	t.Run("memory", func(t *testing.T) { f(t, memStore(image)) })
	t.Run("file", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "dev.bin")
		if err := os.WriteFile(path, image, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		f(t, s)
	})
}

const B = DefaultBlockSize

func TestStoreReadAt(t *testing.T) {
	data := make([]byte, 100)
	for i := range data {
		data[i] = byte(i)
	}
	eachBacking(t, data, func(t *testing.T, s *Store) {
		p := make([]byte, 10)
		if err := s.ReadAt(p, 5); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p, data[5:15]) {
			t.Error("payload mismatch")
		}
	})
	if err := memStore(data).Close(); err != nil {
		t.Errorf("closing a memory store: %v", err)
	}
}

func TestStoreBounds(t *testing.T) {
	eachBacking(t, make([]byte, 10), func(t *testing.T, s *Store) {
		if err := s.ReadAt(make([]byte, 5), 8); err == nil {
			t.Error("read past end should fail")
		}
		if err := s.ReadAt(make([]byte, 1), -1); err == nil {
			t.Error("negative offset should fail")
		}
		if err := s.ReadAt(nil, 10); err != nil {
			t.Errorf("empty read at end should succeed: %v", err)
		}
		if err := s.ReadAt(make([]byte, 1), 9); err != nil {
			t.Errorf("read of the last byte: %v", err)
		}
	})
}

func TestBlockAccounting(t *testing.T) {
	eachBacking(t, make([]byte, 4*B), func(t *testing.T, s *Store) {
		// Read spanning blocks 0..2 (offset B/2, length 2B → last byte in block 2).
		if err := s.ReadAt(make([]byte, 2*B), B/2); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		if st.Reads != 1 || st.BytesRead != 2*B || st.BlocksRead != 3 {
			t.Errorf("stats = %+v, want 1 read, %d bytes, 3 blocks", st, 2*B)
		}
		if st.Seeks != 1 {
			t.Errorf("first read should count as a seek, got %d", st.Seeks)
		}
	})
}

func TestSequentialReadsNoExtraSeeks(t *testing.T) {
	eachBacking(t, make([]byte, 32*B), func(t *testing.T, s *Store) {
		// 16 sequential reads of a block and a half: only the first is a seek,
		// and every other read begins inside the block its predecessor ended in.
		for i := 0; i < 16; i++ {
			if err := s.ReadAt(make([]byte, 3*B/2), int64(i*3*B/2)); err != nil {
				t.Fatal(err)
			}
		}
		st := s.Stats()
		if st.Seeks != 1 {
			t.Errorf("sequential reads produced %d seeks, want 1", st.Seeks)
		}
		// 16 reads × 1.5 blocks = 24 blocks, each charged once.
		if st.BlocksRead != 24 {
			t.Errorf("BlocksRead = %d, want 24", st.BlocksRead)
		}
	})
}

func TestScatteredReadsSeek(t *testing.T) {
	eachBacking(t, make([]byte, 64*B), func(t *testing.T, s *Store) {
		offsets := []int64{0, 32 * B, 2 * B, 47*B + 100}
		for _, off := range offsets {
			if err := s.ReadAt(make([]byte, 8), off); err != nil {
				t.Fatal(err)
			}
		}
		if st := s.Stats(); st.Seeks != int64(len(offsets)) || st.BlocksRead != int64(len(offsets)) {
			t.Errorf("scattered reads: %+v, want %d seeks and blocks", st, len(offsets))
		}
	})
}

func TestReadContinuingSameBlockNotSeek(t *testing.T) {
	eachBacking(t, make([]byte, 4*B), func(t *testing.T, s *Store) {
		if err := s.ReadAt(make([]byte, 10), 0); err != nil {
			t.Fatal(err)
		}
		// Continues inside block 0: next expected block is 1, first block here
		// is 0 = next-1, so not a seek, and block 0 is not charged twice.
		if err := s.ReadAt(make([]byte, 10), 10); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.Seeks != 1 || st.BlocksRead != 1 {
			t.Errorf("continuation within block charged as a seek or a block: %+v", st)
		}
	})
}

func TestStatsSub(t *testing.T) {
	s := memStore(make([]byte, 4*B))
	_ = s.ReadAt(make([]byte, 8), 0)
	before := s.Stats()
	_ = s.ReadAt(make([]byte, 8), 3*B)
	if got := s.Stats().Sub(before); got != (Stats{Reads: 1, BytesRead: 8, BlocksRead: 1, Seeks: 1}) {
		t.Errorf("delta of one read = %+v", got)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Reads: 1, BytesRead: 2, BlocksRead: 3, Seeks: 4}
	b := Stats{Reads: 10, BytesRead: 20, BlocksRead: 30, Seeks: 40}
	if got := a.Add(b); got != (Stats{Reads: 11, BytesRead: 22, BlocksRead: 33, Seeks: 44}) {
		t.Errorf("Add = %+v", got)
	}
}

func TestDiskModelTime(t *testing.T) {
	m := DiskModel{SeekTime: 10 * time.Millisecond, Bandwidth: 1000 * B}
	// 100 blocks at 1000 blocks/s = 100 ms, plus 2 seeks × 10 ms = 120 ms.
	got := m.Time(Stats{BlocksRead: 100, Seeks: 2})
	if got != 120*time.Millisecond {
		t.Errorf("Time = %v, want 120ms", got)
	}
}

func TestDefaultDiskModel(t *testing.T) {
	m := DefaultDiskModel()
	// Reading 50 MB of blocks should model ≈1 s.
	blocks := int64(50*1e6) / B
	d := m.Time(Stats{BlocksRead: blocks, Seeks: 1})
	if d < 900*time.Millisecond || d > 1100*time.Millisecond {
		t.Errorf("50MB read modeled as %v, want ≈1s", d)
	}
}

func TestWriterMemory(t *testing.T) {
	w := NewWriter()
	off1, err := w.Append([]byte("hello"))
	if err != nil || off1 != 0 {
		t.Fatalf("Append 1: off=%d err=%v", off1, err)
	}
	if off, err := w.Append(nil); err != nil || off != 5 {
		t.Fatalf("empty Append: off=%d err=%v", off, err)
	}
	off2, err := w.Append([]byte("world"))
	if err != nil || off2 != 5 {
		t.Fatalf("Append 2: off=%d err=%v", off2, err)
	}
	if w.Offset() != 10 {
		t.Errorf("Offset = %d", w.Offset())
	}
	p := make([]byte, 10)
	if err := w.Store().ReadAt(p, 0); err != nil || string(p) != "helloworld" {
		t.Errorf("store reads %q, %v", p, err)
	}
	if err := w.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestWriterKeepsRecords: a memory writer's store reads the appended slices
// themselves, so the records are never copied — appending n of them
// allocates the writer and its offset table, growing by doubling, and nothing
// near the records' own bytes. (Changing a slice after appending it breaks
// Append's contract; here it shows that nothing else holds the bytes.)
func TestWriterKeepsRecords(t *testing.T) {
	const n = 1000
	rec := bytes.Repeat([]byte{7}, 734)
	var w *Writer
	appendAll := func() {
		w = NewWriter()
		for i := 0; i < n; i++ {
			if _, err := w.Append(rec); err != nil {
				t.Error(err)
			}
		}
	}
	if allocs, most := testing.AllocsPerRun(5, appendAll), float64(bits.Len(n)+2); allocs > most {
		t.Errorf("appending %d records: %v allocations, want at most %v (the writer and its table's growth)", n, allocs, most)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	appendAll()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= n*uint64(len(rec))/4 {
		t.Errorf("appending %d records of %d B allocated %d B: the records were copied", n, len(rec), got)
	}
	rec[0] = 9
	p := make([]byte, 1)
	if err := w.Store().ReadAt(p, 500*int64(len(rec))); err != nil || p[0] != 9 {
		t.Errorf("store read %v, %v: it does not read the appended slice", p, err)
	}
}

// TestRecordStoreMatchesConcatenation: a memory store over records of random
// lengths, empty ones included, serves every range — starting and ending
// mid-record, a byte either side of a record boundary, across record and
// block boundaries, up to the last byte — exactly as a reader over their
// concatenation does, and refuses every range past the end.
func TestRecordStoreMatchesConcatenation(t *testing.T) {
	rng := rand.New(rand.NewPCG(44, 1))
	for trial := 0; trial < 30; trial++ {
		w := NewWriter()
		var all []byte
		bounds := []int64{0}
		for i, n := 0, rng.IntN(40); i < n; i++ {
			rec := make([]byte, rng.IntN(3)*rng.IntN(2*B)) // a third of them empty
			for j := range rec {
				rec[j] = byte(rng.Uint32())
			}
			if off, err := w.Append(rec); err != nil || off != int64(len(all)) {
				t.Fatalf("Append at %d: off=%d err=%v", len(all), off, err)
			}
			all = append(all, rec...)
			bounds = append(bounds, int64(len(all)))
		}
		s, want := w.Store(), bytes.NewReader(all)
		size := int64(len(all))
		// at is anywhere in the image, or a byte either side of a boundary.
		at := func() int64 {
			if rng.IntN(2) == 0 {
				return rng.Int64N(size + 1)
			}
			return min(max(bounds[rng.IntN(len(bounds))]+rng.Int64N(3)-1, 0), size)
		}
		for i := 0; i < 200; i++ {
			off, end := at(), at()
			if i%10 == 0 {
				end = size
			}
			off, end = min(off, end), max(off, end)
			got, exp := make([]byte, end-off), make([]byte, end-off)
			want.ReadAt(exp, off)
			if err := s.ReadAt(got, off); err != nil || !bytes.Equal(got, exp) {
				t.Fatalf("trial %d: [%d,%d) of %d: err %v, bytes equal %v", trial, off, end, size, err, bytes.Equal(got, exp))
			}
			if err := s.ReadAt(make([]byte, size-off+1), off); err == nil {
				t.Fatalf("trial %d: [%d,%d) past the end %d read", trial, off, size+1, size)
			}
		}
	}
}

// TestRecordStoreConcurrentReads: a memory store is read by every node
// lane at once; under -race the readers share the records and the counters.
func TestRecordStoreConcurrentReads(t *testing.T) {
	image := make([]byte, 16*B+123)
	for i := range image {
		image[i] = byte(i * 7)
	}
	s := memStore(image)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 2))
			for i := 0; i < 500; i++ {
				off := rng.IntN(len(image))
				p := make([]byte, rng.IntN(len(image)-off+1))
				if err := s.ReadAt(p, int64(off)); err != nil || !bytes.Equal(p, image[off:off+len(p)]) {
					t.Errorf("reader %d: [%d,%d): %v", g, off, off+len(p), err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.Reads != 4*500 {
		t.Errorf("%d reads counted, want %d", st.Reads, 4*500)
	}
}

func TestWriterFileAndFileStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.bin")
	w, err := CreateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xAB}, 10000)
	if _, err := w.Append(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p := make([]byte, 100)
	if err := s.ReadAt(p, 5000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, payload[:100]) {
		t.Error("payload mismatch")
	}
	st := s.Stats()
	if st.Reads != 1 || st.BlocksRead != 1 || st.Seeks != 1 {
		t.Errorf("stats = %+v", st)
	}
	if err := s.ReadAt(p, 9900); err != nil {
		t.Errorf("read ending at the file's last byte: %v", err)
	}
	if err := s.ReadAt(p, 9901); err == nil {
		t.Error("read past end should fail")
	}
}

func TestWriterStorePanicsForFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.bin")
	w, err := CreateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	defer func() {
		if recover() == nil {
			t.Error("Store on file writer should panic")
		}
	}()
	w.Store()
}

func TestFaultDevice(t *testing.T) {
	s := memStore(make([]byte, 64))
	f := &FaultDevice{Inner: s, FailEvery: 3}
	var fails int
	for i := 0; i < 9; i++ {
		if err := f.ReadAt(make([]byte, 4), 0); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("unexpected error: %v", err)
			}
			fails++
		}
	}
	if fails != 3 {
		t.Errorf("got %d injected failures in 9 reads, want 3", fails)
	}
	// Disabled injection never fails.
	f2 := &FaultDevice{Inner: s}
	for i := 0; i < 10; i++ {
		if err := f2.ReadAt(make([]byte, 4), 0); err != nil {
			t.Fatalf("disabled injector failed: %v", err)
		}
	}
}
