package index

import (
	"math"
	"slices"
	"testing"

	"supg/internal/randx"
)

// The quantized index's one correctness obligation is invisibility:
// every operation must return byte-identical results to the float
// index over the same column, at every segmentation. These tests
// attack the only place that can break — the boundary bucket, where
// code comparisons hand off to float comparisons — with columns
// engineered to straddle bucket edges, collapse into single buckets,
// and exercise the -0.0/denormal normalization the quantizer depends
// on.

// quantSegSizes mirrors the satellite-mandated sweep: degenerate
// 1-record segments, a misaligned prime, a power of two, and the
// monolithic layout.
func quantSegSizes(n int) []int {
	return []int{1, 7, 1024, n}
}

// quantTaus returns the threshold probe set for a column: every
// distinct score, each score's neighbors one ulp away, the exact
// bucket boundary below and above each score, plus the global edges
// and out-of-domain fallbacks (0, 1, tiny denormal, negative, >1, NaN).
func quantTaus(scores []float64) []float64 {
	taus := []float64{0, 1, math.SmallestNonzeroFloat64, -0.5, 1.5, math.NaN()}
	for _, s := range scores {
		b := float64(quantizeScore(s)) / codeBuckets
		taus = append(taus,
			s,
			math.Nextafter(s, 0),
			math.Nextafter(s, 2),
			b,
			math.Nextafter(b, 2),
			b+1.0/codeBuckets,
		)
	}
	return taus
}

// assertQuantizedInvisible builds the float and quantized indexes over
// the same column at one segment size and asserts bit-identical
// behavior of CountAtLeast, KthHighest, AppendAtLeast, Ascend, and
// Mixture across the probe taus.
func assertQuantizedInvisible(t *testing.T, label string, scores []float64, segSize int) {
	t.Helper()
	opts := Options{SegmentSize: segSize, Parallelism: 2}
	ref, err := NewWithOptions(scores, opts)
	if err != nil {
		t.Fatalf("%s: float build: %v", label, err)
	}
	opts.Quantize = true
	q, err := NewWithOptions(scores, opts)
	if err != nil {
		t.Fatalf("%s: quantized build: %v", label, err)
	}
	if !q.Quantized() || ref.Quantized() {
		t.Fatalf("%s: Quantized() flags wrong", label)
	}

	for _, tau := range quantTaus(scores) {
		if w, g := ref.CountAtLeast(tau), q.CountAtLeast(tau); w != g {
			t.Fatalf("%s: CountAtLeast(%v) = %d quantized vs %d float", label, tau, g, w)
		}
		w := ref.AppendAtLeast(nil, tau)
		g := q.AppendAtLeast(nil, tau)
		if len(w) != len(g) {
			t.Fatalf("%s: AppendAtLeast(%v) lengths %d vs %d", label, tau, len(g), len(w))
		}
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("%s: AppendAtLeast(%v)[%d] = %d quantized vs %d float", label, tau, i, g[i], w[i])
			}
		}
	}

	for k := 1; k <= len(scores); k++ {
		w, g := ref.KthHighest(k), q.KthHighest(k)
		if math.Float64bits(w) != math.Float64bits(g) {
			t.Fatalf("%s: KthHighest(%d) = %x quantized vs %x float", label, k, math.Float64bits(g), math.Float64bits(w))
		}
	}

	type pair struct {
		id   int
		bits uint64
	}
	var wantAsc, gotAsc []pair
	ref.Ascend(func(id int, s float64) bool {
		wantAsc = append(wantAsc, pair{id, math.Float64bits(s)})
		return true
	})
	q.Ascend(func(id int, s float64) bool {
		gotAsc = append(gotAsc, pair{id, math.Float64bits(s)})
		return true
	})
	if len(wantAsc) != len(gotAsc) {
		t.Fatalf("%s: Ascend lengths %d vs %d", label, len(gotAsc), len(wantAsc))
	}
	for i := range wantAsc {
		if wantAsc[i] != gotAsc[i] {
			t.Fatalf("%s: Ascend[%d] = %+v quantized vs %+v float", label, i, gotAsc[i], wantAsc[i])
		}
	}

	wWeights, wAlias := ref.Mixture(0.5, 0.1)
	gWeights, gAlias := q.Mixture(0.5, 0.1)
	for i := range wWeights {
		if math.Float64bits(wWeights[i]) != math.Float64bits(gWeights[i]) {
			t.Fatalf("%s: Mixture weight %d differs", label, i)
		}
	}
	wr, gr := randx.New(99), randx.New(99)
	for i := 0; i < 64; i++ {
		if w, g := wAlias.Draw(wr), gAlias.Draw(gr); w != g {
			t.Fatalf("%s: alias draw %d = %d quantized vs %d float", label, i, g, w)
		}
	}
}

// TestQuantizedBoundaryBuckets sweeps engineered boundary-hostile
// columns through every operation at every segment size.
func TestQuantizedBoundaryBuckets(t *testing.T) {
	bucket := func(c int) float64 { return float64(c) / codeBuckets }
	columns := map[string][]float64{
		// Ties straddling a bucket edge: values exactly on boundaries,
		// one ulp below, one ulp above, and duplicated.
		"straddle": {
			bucket(100), bucket(100), math.Nextafter(bucket(100), 0),
			math.Nextafter(bucket(100), 2), bucket(101),
			math.Nextafter(bucket(101), 0), bucket(99), bucket(100),
		},
		// One dominant bucket with interior ties: the k-th highest and
		// every threshold land inside a single code.
		"one-bucket": {
			bucket(7), bucket(7) + 1e-9, bucket(7) + 2e-9, bucket(7) + 1e-9,
			bucket(7) + 3e-9, bucket(7), bucket(7) + 2e-9,
		},
		// All records bit-identical: every operation's answer is decided
		// purely by id tie-breaks.
		"all-equal": {0.25, 0.25, 0.25, 0.25, 0.25, 0.25},
		// Global edges: the 0 and 1 codes, including values in the
		// clamped top bucket.
		"edges": {0, 1, math.Nextafter(1, 0), bucket(65535), 0, 1,
			math.SmallestNonzeroFloat64, bucket(1)},
		"single": {0.625},
	}
	for name, scores := range columns {
		for _, segSize := range quantSegSizes(len(scores)) {
			assertQuantizedInvisible(t, name+"/seg="+itoaQ(segSize), scores, segSize)
		}
	}
}

// TestQuantizedRandomColumns is the randomized variant: bucket-boundary
// records, a cluster packed into a few buckets, and uniform records.
func TestQuantizedRandomColumns(t *testing.T) {
	r := randx.New(4242)
	for _, n := range []int{33, 257, 3000} {
		scores := make([]float64, n)
		for i := range scores {
			switch r.IntN(4) {
			case 0:
				// Exact bucket boundary.
				scores[i] = float64(r.IntN(codeBuckets)) / codeBuckets
			case 1:
				// Skewed cluster: most records share very few buckets.
				scores[i] = r.Float64() * (16.0 / codeBuckets)
			default:
				scores[i] = r.Float64()
			}
		}
		for _, segSize := range quantSegSizes(n) {
			if n > 300 && segSize == 1 {
				continue // 3000 one-record segments add time, not coverage
			}
			assertQuantizedInvisible(t, "rand/n="+itoaQ(n)+"/seg="+itoaQ(segSize), scores, segSize)
		}
	}
}

// TestQuantizeNormalizedZeros pins the -0.0 audit satellite: the
// quantizer consumes the normalized column, so a caller's -0.0 builds
// the same bucket-0 code as +0.0, and every surface that returns a
// score returns the normalized +0.0 bit pattern. Denormals and the
// clamped 1.0 ride along.
func TestQuantizeNormalizedZeros(t *testing.T) {
	negZero := math.Copysign(0, -1)
	scores := []float64{negZero, 0, math.SmallestNonzeroFloat64, 1.0,
		5e-324, negZero, 2.2250738585072014e-308, 1.0}
	for _, segSize := range quantSegSizes(len(scores)) {
		assertQuantizedInvisible(t, "negzero/seg="+itoaQ(segSize), scores, segSize)

		q, err := NewWithOptions(scores, Options{SegmentSize: segSize, Quantize: true})
		if err != nil {
			t.Fatal(err)
		}
		// The caller's -0.0 must never surface: Score, Ascend, and
		// KthHighest all return the normalized +0.0.
		for i := 0; i < q.Len(); i++ {
			if s := q.Score(i); s == 0 && math.Signbit(s) {
				t.Fatalf("seg=%d: Score(%d) is -0.0", segSize, i)
			}
		}
		q.Ascend(func(id int, s float64) bool {
			if s == 0 && math.Signbit(s) {
				t.Fatalf("seg=%d: Ascend yielded -0.0 at id %d", segSize, id)
			}
			return true
		})
		if s := q.KthHighest(q.Len()); s == 0 && math.Signbit(s) {
			t.Fatalf("seg=%d: KthHighest returned -0.0", segSize)
		}
		// Codes must come from the normalized values: -0.0 and +0.0
		// records carry identical bucket-0 codes, so CountAtLeast at the
		// smallest positive threshold counts none of the zeros…
		if got := q.CountAtLeast(math.SmallestNonzeroFloat64); got != 5 {
			t.Fatalf("seg=%d: CountAtLeast(denormal) = %d, want 5", segSize, got)
		}
		// …and tau = 0 counts everything (>= 0 matches -0.0 too, but
		// only because both normalize to the same +0.0).
		if got := q.CountAtLeast(0); got != len(scores) {
			t.Fatalf("seg=%d: CountAtLeast(0) = %d, want %d", segSize, got, len(scores))
		}
	}
}

// TestQuantizeScoreMonotone pins the quantizer's contract directly:
// monotone over the probe lattice, exact at bucket boundaries, clamped
// at 1.0.
func TestQuantizeScoreMonotone(t *testing.T) {
	if quantizeScore(0) != 0 || quantizeScore(1) != codeBuckets-1 {
		t.Fatalf("edge codes: q(0)=%d q(1)=%d", quantizeScore(0), quantizeScore(1))
	}
	if quantizeScore(math.SmallestNonzeroFloat64) != 0 {
		t.Fatal("denormal must land in bucket 0")
	}
	prev := uint16(0)
	for c := 0; c < codeBuckets; c += 97 {
		b := float64(c) / codeBuckets
		if quantizeScore(b) != uint16(c) {
			t.Fatalf("boundary %d quantized to %d", c, quantizeScore(b))
		}
		if below := math.Nextafter(b, 0); b > 0 && quantizeScore(below) != uint16(c-1) && quantizeScore(below) != uint16(c) {
			// One ulp below a boundary is in the previous bucket except
			// when the product rounds back up — either way it must not
			// exceed the boundary's own code.
			t.Fatalf("below boundary %d quantized to %d", c, quantizeScore(below))
		}
		q := quantizeScore(b)
		if q < prev {
			t.Fatalf("non-monotone at bucket %d", c)
		}
		prev = q
	}
}

// FuzzQuantizedEquivalence feeds arbitrary boundary-heavy columns and
// thresholds through both indexes and requires bit-identical counts,
// cuts, and order statistics. Float and quantized indexes share one
// gather, so each index's extraction is checked against the O(n)
// reference instead of against the other, at segment sizes either side
// of the 64-bit bitmap word. Each 2-byte chunk of data becomes one
// record: chunks ending in 0 sit exactly on their bucket boundary,
// others are perturbed into the bucket interior — the distribution
// lives on the code map's decision edges by construction.
func FuzzQuantizedEquivalence(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0xff, 0xff, 0x64, 0x00, 0x64, 0x01}, 0.5)
	f.Add([]byte{0x01, 0x00, 0x01, 0x00, 0x01, 0x00, 0x02, 0x00}, 1.0/codeBuckets)
	f.Add([]byte{0xff, 0xff}, 1.0)
	f.Add([]byte{0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x80, 0x90, 0xa0}, math.NaN())
	f.Fuzz(func(t *testing.T, data []byte, tau float64) {
		if len(data) < 2 || len(data) > 4096 {
			t.Skip()
		}
		scores := make([]float64, 0, len(data)/2)
		for i := 0; i+1 < len(data); i += 2 {
			c := uint16(data[i]) | uint16(data[i+1])<<8
			s := float64(c) / codeBuckets
			if data[i]&1 != 0 {
				s += float64(data[i+1]) / (256 * codeBuckets) // bucket interior
			}
			if s > 1 {
				s = 1
			}
			scores = append(scores, s)
		}
		n := len(scores)
		wantIDs := appendAtLeastRef(scores, tau)
		for _, segSize := range []int{1, 3, 63, 64, 65, n} {
			ref, err := NewWithOptions(scores, Options{SegmentSize: segSize})
			if err != nil {
				t.Fatal(err)
			}
			q, err := NewWithOptions(scores, Options{SegmentSize: segSize, Quantize: true})
			if err != nil {
				t.Fatal(err)
			}
			if w, g := ref.CountAtLeast(tau), q.CountAtLeast(tau); w != g {
				t.Fatalf("seg=%d: CountAtLeast(%v) %d vs %d", segSize, tau, g, w)
			}
			for _, ix := range []*ScoreIndex{ref, q} {
				if got := ix.AppendAtLeast(nil, tau); !slices.Equal(got, wantIDs) {
					t.Fatalf("seg=%d quantized=%v: AppendAtLeast(%v) %d ids, want %d (first diff at %d)",
						segSize, ix.Quantized(), tau, len(got), len(wantIDs), firstDiff(got, wantIDs))
				}
			}
			for k := 1; k <= n; k += 1 + n/7 {
				if wb, gb := math.Float64bits(ref.KthHighest(k)), math.Float64bits(q.KthHighest(k)); wb != gb {
					t.Fatalf("seg=%d: KthHighest(%d) %x vs %x", segSize, k, gb, wb)
				}
			}
		}
	})
}

func itoaQ(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
