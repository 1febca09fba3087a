package core

// TimeVaryingIndex is the paper's §5.2 extension: one compact interval tree
// per time step, all resident in memory. The total index size is
// O(m·n·log n) for m steps — independent of the number of cells — so even
// hundreds of steps of one- or two-byte data stay within a few megabytes
// (the paper's 270-step RM index is 1.6 MB).
type TimeVaryingIndex struct {
	Steps []*Tree
}

// NumSteps returns the number of indexed time steps.
func (tv *TimeVaryingIndex) NumSteps() int { return len(tv.Steps) }

// IndexSizeBytes returns the summed packed size of all per-step indexes.
func (tv *TimeVaryingIndex) IndexSizeBytes() int64 {
	var n int64
	for _, t := range tv.Steps {
		if t != nil {
			n += t.IndexSizeBytes()
		}
	}
	return n
}
