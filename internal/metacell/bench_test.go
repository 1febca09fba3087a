package metacell

import (
	"testing"

	"repro/internal/volume"
)

// BenchmarkExtract measures metacell decomposition of the repository
// benchmark's time step (bench/: 256×256×240 RM, step 250, seed 42), in
// volume bytes per second.
func BenchmarkExtract(b *testing.B) {
	g := volume.RichtmyerMeshkov(256, 256, 240, 250, 42)
	b.SetBytes(g.SizeBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Extract(g, 9)
	}
}

// BenchmarkDecodeRecord measures record decoding, the hot path of the
// triangulation phase.
func BenchmarkDecodeRecord(b *testing.B) {
	g := volume.RichtmyerMeshkov(33, 33, 30, 250, 1)
	l, cells := Extract(g, 9)
	var m Meta
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeRecordInto(l, cells[i%len(cells)].Record, &m); err != nil {
			b.Fatal(err)
		}
	}
}
