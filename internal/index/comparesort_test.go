package index

import "slices"

// The comparator sort that the radix sort replaced. It lives in a test
// file as the independent oracle for buildSegment's permutation: the
// equivalence tests in radix_test.go pin the radix sort's perm and
// sorted arrays against it bit for bit.

// sortSegmentReference returns the local ids of the validated
// sub-column sub ascending by (score, id), and the scores in that
// order, through pdqsort over an explicit (score, id) comparator.
func sortSegmentReference(sub []float64) (perm []int, sorted []float64) {
	perm = make([]int, len(sub))
	for i := range perm {
		perm[i] = i
	}
	slices.SortFunc(perm, func(a, b int) int {
		if sub[a] != sub[b] {
			if sub[a] < sub[b] {
				return -1
			}
			return 1
		}
		return a - b
	})
	sorted = make([]float64, len(sub))
	for i, p := range perm {
		sorted[i] = sub[p]
	}
	return perm, sorted
}
