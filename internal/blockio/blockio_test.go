package blockio

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// eachBacking runs f on a memory store and on a file store over the same
// image: the accounting is written once, and holds for both.
func eachBacking(t *testing.T, image []byte, f func(t *testing.T, s *Store)) {
	t.Run("memory", func(t *testing.T) { f(t, NewStore(image)) })
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
	if err := NewStore(data).Close(); err != nil {
		t.Errorf("closing a memory image: %v", err)
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
	s := NewStore(make([]byte, 4*B))
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
	off2, err := w.Append([]byte("world"))
	if err != nil || off2 != 5 {
		t.Fatalf("Append 2: off=%d err=%v", off2, err)
	}
	if w.Offset() != 10 {
		t.Errorf("Offset = %d", w.Offset())
	}
	if string(w.Bytes()) != "helloworld" {
		t.Errorf("Bytes = %q", w.Bytes())
	}
	if err := w.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestWriterReserve: a memory writer told how much is coming builds its image
// in place — appends up to the reserved size neither allocate nor move what
// is there — and an append past it still works.
func TestWriterReserve(t *testing.T) {
	rec := bytes.Repeat([]byte{7}, 734)
	w := NewWriter()
	if _, err := w.Append(rec); err != nil {
		t.Fatal(err)
	}
	w.Reserve(1000 * len(rec))
	first := &w.Bytes()[0]
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 500; i++ { // AllocsPerRun runs it twice
			if _, err := w.Append(rec); err != nil {
				t.Error(err)
			}
		}
	})
	if allocs != 0 || &w.Bytes()[0] != first {
		t.Errorf("appending into reserved room: %v allocations, image moved: %v", allocs, &w.Bytes()[0] != first)
	}
	for i := 0; i < 10; i++ {
		if _, err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if want := int64(1011 * len(rec)); w.Offset() != want || int64(len(w.Bytes())) != want {
		t.Errorf("offset %d, image %d bytes, want %d", w.Offset(), len(w.Bytes()), want)
	}

	f, err := CreateFile(filepath.Join(t.TempDir(), "dev.bin"))
	if err != nil {
		t.Fatal(err)
	}
	f.Reserve(1 << 20) // nothing to size: the file grows as it is written
	if err := f.Close(); err != nil {
		t.Fatal(err)
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

func TestWriterBytesPanicsForFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.bin")
	w, err := CreateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	defer func() {
		if recover() == nil {
			t.Error("Bytes on file writer should panic")
		}
	}()
	w.Bytes()
}

func TestFaultDevice(t *testing.T) {
	s := NewStore(make([]byte, 64))
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
