package march

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/metacell"
	"repro/internal/volume"
)

// BenchmarkMetacellIndexed measures welding one decoded metacell, the
// busiest (widest interval) of a small RM volume; -benchmem should report 0
// allocs/op in steady state.
func BenchmarkMetacellIndexed(b *testing.B) {
	g := volume.RichtmyerMeshkov(33, 33, 30, 250, 1)
	l, cells := metacell.Extract(g, 9)
	best := 0
	for i, c := range cells {
		if c.VMax-c.VMin > cells[best].VMax-cells[best].VMin {
			best = i
		}
	}
	m, err := metacell.DecodeRecord(l, cells[best].Record)
	if err != nil {
		b.Fatal(err)
	}
	iso := (cells[best].VMin + cells[best].VMax) / 2
	var w Welder
	var mesh geom.Mesh
	w.Metacell(l, &m, iso, &mesh) // size the scratch before timing
	b.ResetTimer()
	tris := 0
	for i := 0; i < b.N; i++ {
		mesh.Reset()
		w.Metacell(l, &m, iso, &mesh)
		tris = mesh.Len()
	}
	b.ReportMetric(float64(tris), "triangles")
	b.ReportMetric(float64(mesh.NumVerts()), "verts")
}

// BenchmarkGrid measures whole-volume marching cubes throughput.
func BenchmarkGrid(b *testing.B) {
	g := volume.RichtmyerMeshkov(65, 65, 60, 250, 1)
	b.ResetTimer()
	var tris int
	for i := 0; i < b.N; i++ {
		mesh, _ := Grid(g, 128)
		tris = mesh.Len()
	}
	b.StopTimer()
	if tris > 0 {
		b.ReportMetric(float64(tris)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mtri/s")
	}
}

// BenchmarkNodeWeld is one worker's share of a node-extraction: weld every
// active metacell of an RM volume from its encoded record, in record order,
// resetting the batch mesh every batchRecords records as the pipeline does,
// at a sparse, a dense and again a sparse isovalue with one Welder
// throughout. Unlike BenchmarkMetacellIndexed's single busiest metacell this
// includes the inactive cells of active metacells, which outnumber the active
// ones.
func BenchmarkNodeWeld(b *testing.B) {
	const batchRecords = 256 // cluster.DefaultBatchRecords; cluster imports march
	g := volume.RichtmyerMeshkov(129, 129, 120, 250, 1)
	l, cells := metacell.Extract(g, 9)
	var w Welder
	var mesh geom.Mesh
	sweep := func() (active, tris, verts int) {
		for _, iso := range []float32{30, 130, 210} {
			n := 0
			mesh.Reset()
			for _, c := range cells {
				if iso < c.VMin || iso > c.VMax {
					continue
				}
				a, err := w.Record(l, c.Record, iso, &mesh)
				if err != nil {
					b.Fatal(err)
				}
				active += a
				if n++; n%batchRecords == 0 {
					tris, verts = tris+mesh.Len(), verts+mesh.NumVerts()
					mesh.Reset()
				}
			}
			tris, verts = tris+mesh.Len(), verts+mesh.NumVerts()
		}
		return active, tris, verts
	}
	sweep() // size the scratch before timing
	b.ResetTimer()
	var active, tris, verts int
	for i := 0; i < b.N; i++ {
		active, tris, verts = sweep()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*active), "ns/cell")
	b.ReportMetric(float64(tris), "tris")
	b.ReportMetric(float64(verts), "verts")
}
