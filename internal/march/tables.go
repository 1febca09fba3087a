// Package march implements Marching Cubes triangulation of metacells.
//
// The paper (§5) notes that "any of the several variations of the Marching
// Cubes algorithm" can be used once an active metacell is in memory. This
// implementation generates the full 256-case triangle table programmatically
// at init time instead of embedding the classic hand-written table: for each
// corner configuration it intersects the isosurface with every cube face,
// producing line segments, stitches the segments into closed cycles, orients
// each cycle so triangle normals point toward the lower-valued region, and
// fan-triangulates. Ambiguous faces (two diagonal inside corners) are always
// resolved by separating the inside corners; since the rule depends only on
// the shared face's corner classification, adjacent cells make the same
// choice and the extracted surface is crack-free.
package march

import (
	"fmt"

	"repro/internal/geom"
)

// Cube conventions: corner c (0..7) sits at offset (c&1, c>>1&1, c>>2&1).
// Edges 0..3 are x-aligned, 4..7 y-aligned, 8..11 z-aligned.
var cornerOffset = [8][3]int{
	{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {1, 1, 0},
	{0, 0, 1}, {1, 0, 1}, {0, 1, 1}, {1, 1, 1},
}

// edgeCorners lists the two corner indices of each of the 12 cube edges.
var edgeCorners = [12][2]int{
	{0, 1}, {2, 3}, {4, 5}, {6, 7}, // x-aligned
	{0, 2}, {1, 3}, {4, 6}, {5, 7}, // y-aligned
	{0, 4}, {1, 5}, {2, 6}, {3, 7}, // z-aligned
}

// faceCorners lists each cube face's corners in cyclic order (consecutive
// corners are adjacent along a face edge).
var faceCorners = [6][4]int{
	{0, 2, 6, 4}, // x = 0
	{1, 5, 7, 3}, // x = 1
	{0, 1, 5, 4}, // y = 0
	{2, 3, 7, 6}, // y = 1
	{0, 1, 3, 2}, // z = 0
	{4, 5, 7, 6}, // z = 1
}

// The generated triangulation is stored flat so the per-cell hot path loads
// plain arrays instead of chasing slice headers:
//
//   - triTable[config] is a fixed 16-entry row of edge indices, three per
//     triangle (the generator never exceeds 5 triangles = 15 entries);
//   - triCount[config] is the number of triangles in the row;
//   - cutEdgeMask[config] has bit e set when the row references edge e, so
//     the interpolation loop walks set bits instead of re-scanning the row
//     with seen-edge bookkeeping.
//
// A configuration bit c is set when corner c's value is >= the isovalue
// ("inside").
var (
	triTable    [256][16]uint8
	triCount    [256]uint8
	cutEdgeMask [256]uint16
)

// edgeBetween maps an unordered corner pair to its edge index, or -1.
var edgeBetween [8][8]int8

func init() {
	for a := range edgeBetween {
		for b := range edgeBetween[a] {
			edgeBetween[a][b] = -1
		}
	}
	for e, c := range edgeCorners {
		edgeBetween[c[0]][c[1]] = int8(e)
		edgeBetween[c[1]][c[0]] = int8(e)
	}
	for config := 1; config < 255; config++ {
		tris := triangulateConfig(uint8(config))
		if len(tris) > len(triTable[config]) {
			panic(fmt.Sprintf("march: config %08b generated %d entries, flat table holds %d",
				config, len(tris), len(triTable[config])))
		}
		copy(triTable[config][:], tris)
		triCount[config] = uint8(len(tris) / 3)
		for _, e := range tris {
			cutEdgeMask[config] |= 1 << e
		}
	}
}

// triangulateConfig builds the triangle list for one corner configuration.
func triangulateConfig(config uint8) []uint8 {
	inside := func(c int) bool { return config&(1<<c) != 0 }

	// Phase 1: per-face segments between cut edges.
	type segment [2]int8
	var segs []segment
	for _, fc := range faceCorners {
		var visited [4]bool
		for i := 0; i < 4; i++ {
			if visited[i] || !inside(fc[i]) {
				continue
			}
			// Flood the component of inside corners containing fc[i] along
			// the face's cyclic adjacency.
			var comp []int
			stack := []int{i}
			visited[i] = true
			for len(stack) > 0 {
				j := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				comp = append(comp, j)
				for _, k := range [2]int{(j + 1) % 4, (j + 3) % 4} {
					if !visited[k] && inside(fc[k]) {
						visited[k] = true
						stack = append(stack, k)
					}
				}
			}
			// The component's boundary on this face: cut edges from a member
			// to an outside neighbor.
			var cut []int8
			for _, j := range comp {
				for _, k := range [2]int{(j + 1) % 4, (j + 3) % 4} {
					if !inside(fc[k]) {
						cut = append(cut, edgeBetween[fc[j]][fc[k]])
					}
				}
			}
			switch len(cut) {
			case 0:
				// Component covers the whole face; no boundary here.
			case 2:
				segs = append(segs, segment{cut[0], cut[1]})
			default:
				panic(fmt.Sprintf("march: config %08b face component with %d cut edges", config, len(cut)))
			}
		}
	}
	if len(segs) == 0 {
		return nil
	}

	// Phase 2: stitch segments into closed cycles. Every cut edge lies on
	// exactly two faces and receives exactly one segment from each, so the
	// segment graph is 2-regular and decomposes into disjoint cycles.
	segsAt := make(map[int8][]int)
	for s, seg := range segs {
		segsAt[seg[0]] = append(segsAt[seg[0]], s)
		segsAt[seg[1]] = append(segsAt[seg[1]], s)
	}
	used := make([]bool, len(segs))
	var tris []uint8
	for s := range segs {
		if used[s] {
			continue
		}
		used[s] = true
		cycle := []int8{segs[s][0], segs[s][1]}
		cur := segs[s][1]
		for {
			next := -1
			for _, t := range segsAt[cur] {
				if !used[t] {
					next = t
					break
				}
			}
			if next == -1 {
				break // cycle closed back at cycle[0]
			}
			used[next] = true
			other := segs[next][0]
			if other == cur {
				other = segs[next][1]
			}
			if other == cycle[0] {
				break
			}
			cycle = append(cycle, other)
			cur = other
		}
		if len(cycle) < 3 {
			panic(fmt.Sprintf("march: config %08b produced a %d-cycle", config, len(cycle)))
		}
		tris = append(tris, orientAndFan(config, cycle)...)
	}
	return tris
}

// orientAndFan orients the polygon so its normal points toward the outside
// (lower-valued) region and returns the fan triangulation.
func orientAndFan(config uint8, cycle []int8) []uint8 {
	mids := make([]geom.Vec3, len(cycle))
	for i, e := range cycle {
		a, b := edgeCorners[e][0], edgeCorners[e][1]
		mids[i] = geom.V(
			float32(cornerOffset[a][0]+cornerOffset[b][0])/2,
			float32(cornerOffset[a][1]+cornerOffset[b][1])/2,
			float32(cornerOffset[a][2]+cornerOffset[b][2])/2,
		)
	}
	normal := geom.NewellNormal(mids)
	// Reference direction: from inside corners toward outside corners, summed
	// over the cycle's cut edges.
	var ref geom.Vec3
	for _, e := range cycle {
		a, b := edgeCorners[e][0], edgeCorners[e][1]
		if config&(1<<a) == 0 {
			a, b = b, a // make a the inside corner
		}
		ref = ref.Add(geom.V(
			float32(cornerOffset[b][0]-cornerOffset[a][0]),
			float32(cornerOffset[b][1]-cornerOffset[a][1]),
			float32(cornerOffset[b][2]-cornerOffset[a][2]),
		))
	}
	d := normal.Dot(ref)
	if d == 0 {
		panic(fmt.Sprintf("march: config %08b cycle orientation is ambiguous", config))
	}
	if d < 0 {
		for i, j := 0, len(cycle)-1; i < j; i, j = i+1, j-1 {
			cycle[i], cycle[j] = cycle[j], cycle[i]
		}
	}
	tris := make([]uint8, 0, 3*(len(cycle)-2))
	for i := 1; i+1 < len(cycle); i++ {
		tris = append(tris, uint8(cycle[0]), uint8(cycle[i]), uint8(cycle[i+1]))
	}
	return tris
}

// TriangleCount returns the number of triangles the table produces for a
// configuration.
func TriangleCount(config uint8) int { return int(triCount[config]) }

// TableTriangles exposes the generated triangle list (edge-index triples) of
// a configuration, primarily for tests and inspection.
func TableTriangles(config uint8) []uint8 { return triTable[config][:3*triCount[config]] }
