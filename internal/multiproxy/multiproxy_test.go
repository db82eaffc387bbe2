package multiproxy

import (
	"math"
	"testing"

	"supg/internal/core"
	"supg/internal/dataset"
	"supg/internal/metrics"
	"supg/internal/oracle"
	"supg/internal/randx"
)

// twoProxyDataset builds a dataset with two complementary noisy proxies:
// each individually is a degraded view of the calibrated score, but
// their noise is independent so fusion recovers signal.
func twoProxyDataset(seed uint64, n int) (d *dataset.Dataset, columns [][]float64) {
	r := randx.New(seed)
	base := dataset.Beta(r, n, 0.05, 1)
	noisy := func(stream uint64, sigma float64) []float64 {
		rs := r.Stream(stream)
		out := make([]float64, n)
		for i := 0; i < n; i++ {
			v := base.Score(i) + sigma*rs.NormFloat64()
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			out[i] = v
		}
		return out
	}
	return base, [][]float64{noisy(1, 0.15), noisy(2, 0.15)}
}

func TestValidateColumns(t *testing.T) {
	if _, err := Mean(nil); err == nil {
		t.Error("no columns should error")
	}
	if _, err := Mean([][]float64{{}}); err == nil {
		t.Error("empty columns should error")
	}
	if _, err := Mean([][]float64{{0.1, 0.2}, {0.1}}); err == nil {
		t.Error("ragged columns should error")
	}
}

func TestMeanAndMax(t *testing.T) {
	cols := [][]float64{{0.2, 0.8}, {0.4, 0.2}}
	mean, err := Mean(cols)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean[0]-0.3) > 1e-12 || math.Abs(mean[1]-0.5) > 1e-12 {
		t.Errorf("mean %v", mean)
	}
	max, err := Max(cols)
	if err != nil {
		t.Fatal(err)
	}
	if max[0] != 0.4 || max[1] != 0.8 {
		t.Errorf("max %v", max)
	}
}

func TestFitLogisticSeparable(t *testing.T) {
	// One informative feature: label = feature > 0.5.
	var features [][]float64
	var labels []bool
	for i := 0; i < 200; i++ {
		v := float64(i) / 200
		features = append(features, []float64{v})
		labels = append(labels, v > 0.5)
	}
	m, err := FitLogistic(features, labels, 2000, 1.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Score([]float64{0.9}) < 0.8 {
		t.Errorf("high feature scored %v", m.Score([]float64{0.9}))
	}
	if m.Score([]float64{0.1}) > 0.2 {
		t.Errorf("low feature scored %v", m.Score([]float64{0.1}))
	}
}

func TestFitLogisticIgnoresUselessFeature(t *testing.T) {
	r := randx.New(5)
	var features [][]float64
	var labels []bool
	for i := 0; i < 400; i++ {
		signal := r.Float64()
		junk := r.Float64()
		features = append(features, []float64{signal, junk})
		labels = append(labels, r.Bernoulli(signal))
	}
	m, err := FitLogistic(features, labels, 1500, 1.0, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Weights[0]) <= math.Abs(m.Weights[1]) {
		t.Errorf("signal weight %v should dominate junk weight %v", m.Weights[0], m.Weights[1])
	}
}

func TestFitLogisticValidation(t *testing.T) {
	if _, err := FitLogistic(nil, nil, 10, 0.1, 0); err == nil {
		t.Error("no examples should error")
	}
	if _, err := FitLogistic([][]float64{{1}}, []bool{true, false}, 10, 0.1, 0); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := FitLogistic([][]float64{{1}, {1, 2}}, []bool{true, false}, 10, 0.1, 0); err == nil {
		t.Error("ragged rows should error")
	}
}

func TestSigmoidStable(t *testing.T) {
	if s := sigmoid(1000); s != 1 {
		t.Errorf("sigmoid(1000) = %v", s)
	}
	if s := sigmoid(-1000); s != 0 {
		t.Errorf("sigmoid(-1000) = %v", s)
	}
	if math.Abs(sigmoid(0)-0.5) > 1e-12 {
		t.Error("sigmoid(0)")
	}
}

func TestCalibrateRespectsBudget(t *testing.T) {
	d, cols := twoProxyDataset(1, 20000)
	budgeted := oracle.NewBudgeted(oracle.NewSimulated(d), 100)
	if _, err := Calibrate(randx.New(2), cols, budgeted, 100); err != nil {
		t.Fatal(err)
	}
	if budgeted.Used() > 100 {
		t.Fatalf("calibration used %d labels", budgeted.Used())
	}
	if _, err := Calibrate(randx.New(2), cols, budgeted, 5); err == nil {
		t.Error("tiny calibration budget should error")
	}
}

func TestApplyShapeChecks(t *testing.T) {
	m := &LogisticModel{Weights: []float64{1, 2}}
	if _, err := m.Apply([][]float64{{0.5}}); err == nil {
		t.Error("column-count mismatch should error")
	}
	out, err := m.Apply([][]float64{{0.5}, {0.25}})
	if err != nil || len(out) != 1 {
		t.Fatalf("apply: %v %v", out, err)
	}
	if out[0] <= 0 || out[0] >= 1 {
		t.Errorf("fused score %v outside (0,1)", out[0])
	}
}

func TestSelectMultiGuaranteeHolds(t *testing.T) {
	d, cols := twoProxyDataset(3, 40000)
	spec := core.Spec{Kind: core.RecallTarget, Gamma: 0.85, Delta: 0.05, Budget: 2000}
	r := randx.New(4)
	fails := 0
	trials := 30
	for trial := 0; trial < trials; trial++ {
		res, err := Select(r.Stream(uint64(trial)), cols, oracle.NewSimulated(d), spec, core.DefaultSUPG(), Fuser{Kind: FuseLogistic})
		if err != nil {
			t.Fatal(err)
		}
		if res.OracleCalls > spec.Budget {
			t.Fatalf("total oracle calls %d exceed budget", res.OracleCalls)
		}
		if metrics.Evaluate(d, res.Indices).Recall < spec.Gamma {
			fails++
		}
	}
	if rate := float64(fails) / float64(trials); rate > 0.17 {
		t.Fatalf("multi-proxy failure rate %v", rate)
	}
}

func TestLogisticFusionBeatsSingleNoisyProxy(t *testing.T) {
	// Very noisy individual proxies (sigma 0.3) whose errors are
	// independent: the fused score recovers signal neither column has.
	r0 := randx.New(5)
	base := dataset.Beta(r0, 60000, 0.1, 1)
	noisy := func(stream uint64) []float64 {
		rs := r0.Stream(stream)
		out := make([]float64, base.Len())
		for i := range out {
			v := base.Score(i) + 0.3*rs.NormFloat64()
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			out[i] = v
		}
		return out
	}
	d := base
	cols := [][]float64{noisy(1), noisy(2), noisy(3)}
	spec := core.Spec{Kind: core.PrecisionTarget, Gamma: 0.8, Delta: 0.05, Budget: 2000}
	r := randx.New(6)

	quality := func(scores [][]float64, fusion Fusion) float64 {
		sum := 0.0
		trials := 10
		for trial := 0; trial < trials; trial++ {
			res, err := Select(r.Stream(uint64(1000+trial+int(fusion)*100)), scores, oracle.NewSimulated(d), spec, core.DefaultSUPG(), Fuser{Kind: fusion})
			if err != nil {
				t.Fatal(err)
			}
			sum += metrics.Evaluate(d, res.Indices).Recall
		}
		return sum / float64(trials)
	}

	single := quality(cols[:1], FuseMean) // single noisy proxy
	fusedLog := quality(cols, FuseLogistic)
	if fusedLog < single*0.9 {
		t.Fatalf("logistic fusion recall %v should not fall below single-proxy %v", fusedLog, single)
	}
}

func TestSelectMultiMeanAndMax(t *testing.T) {
	d, cols := twoProxyDataset(7, 20000)
	spec := core.Spec{Kind: core.RecallTarget, Gamma: 0.8, Delta: 0.05, Budget: 1500}
	for _, f := range []Fusion{FuseMean, FuseMax} {
		res, err := Select(randx.New(8), cols, oracle.NewSimulated(d), spec, core.DefaultSUPG(), Fuser{Kind: f})
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if res.CalibrationCalls != 0 {
			t.Errorf("%v: label-free fusion spent %d calibration calls", f, res.CalibrationCalls)
		}
		if res.Fusion != f {
			t.Errorf("fusion echo %v", res.Fusion)
		}
	}
}

// TestSelectReturnsEveryLabeledPositive pins R1 on the multi-proxy
// path as everything the query's one budget wrapper labeled positive:
// every record the oracle labeled positive, calibration sample
// included, is in Indices, and SampledPositives counts the returned
// records scoring below tau (all of them when tau is +Inf).
func TestSelectReturnsEveryLabeledPositive(t *testing.T) {
	d, cols := twoProxyDataset(7, 20000)
	for _, spec := range []core.Spec{
		{Kind: core.PrecisionTarget, Gamma: 0.6, Delta: 0.05, Budget: 1000},
		// Certifies no threshold: tau is +Inf and R1 is the answer.
		{Kind: core.PrecisionTarget, Gamma: 0.99, Delta: 0.05, Budget: 1000},
		{Kind: core.RecallTarget, Gamma: 0.6, Delta: 0.05, Budget: 1000},
	} {
		kind := spec.Kind
		for _, fusion := range []Fusion{FuseMean, FuseLogistic} {
			var positives []int
			orc := oracle.Func(func(i int) (bool, error) {
				if d.TrueLabel(i) {
					positives = append(positives, i)
				}
				return d.TrueLabel(i), nil
			})
			res, err := Select(randx.New(8), cols, orc, spec, core.DefaultSUPG(), Fuser{Kind: fusion})
			if err != nil {
				t.Fatalf("%v/%v: %v", kind, fusion, err)
			}
			if len(positives) == 0 {
				t.Fatalf("%v/%v: the oracle labeled no positive", kind, fusion)
			}
			// Fusion is a pure function of its stream and labels, so this
			// is the column Select thresholded.
			f := Fuser{Kind: fusion, CalibrationBudget: DefaultCalibration(spec.Budget)}
			fused, err := f.Fuse(randx.New(8).Stream(1), cols, oracle.NewBudgeted(oracle.NewSimulated(d), spec.Budget))
			if err != nil {
				t.Fatal(err)
			}
			returned := make(map[int]bool, len(res.Indices))
			below := 0
			for _, i := range res.Indices {
				returned[i] = true
				if !(fused.Scores[i] >= res.Tau) {
					below++
				}
			}
			if res.SampledPositives != below {
				t.Errorf("%v/%v: SampledPositives = %d, want the %d of %d returned ids below tau %v",
					kind, fusion, res.SampledPositives, below, len(res.Indices), res.Tau)
			}
			for _, i := range positives {
				if !returned[i] {
					t.Fatalf("%v/%v: labeled positive %d not returned", kind, fusion, i)
				}
			}
		}
	}
}

func TestSelectMultiValidation(t *testing.T) {
	d, cols := twoProxyDataset(9, 5000)
	bad := core.Spec{Kind: core.RecallTarget, Gamma: 0, Delta: 0.05, Budget: 100}
	if _, err := Select(randx.New(1), cols, oracle.NewSimulated(d), bad, core.DefaultSUPG(), Fuser{Kind: FuseMean}); err == nil {
		t.Error("invalid spec should be rejected")
	}
	good := core.Spec{Kind: core.RecallTarget, Gamma: 0.8, Delta: 0.05, Budget: 100}
	if _, err := Select(randx.New(1), nil, oracle.NewSimulated(d), good, core.DefaultSUPG(), Fuser{Kind: FuseMean}); err == nil {
		t.Error("nil columns should be rejected")
	}
	if _, err := Select(randx.New(1), cols, oracle.NewSimulated(d), good, core.DefaultSUPG(), Fuser{Kind: Fusion(9)}); err == nil {
		t.Error("unknown fusion should be rejected")
	}
}

// complementaryProxyDataset builds the adversarial-for-single-proxy
// shape: two independent uniform signals a, b with labels drawn as
// Bernoulli(a*b). Each proxy alone sees only half the signal (given a
// high a, the label still hinges entirely on b), so any single-proxy
// ranking is mediocre; a fused ranking over both recovers it.
func complementaryProxyDataset(seed uint64, n int) (d *dataset.Dataset, columns [][]float64) {
	r := randx.New(seed)
	ra, rb, rl := r.Stream(1), r.Stream(2), r.Stream(3)
	a := make([]float64, n)
	b := make([]float64, n)
	labels := make([]bool, n)
	for i := 0; i < n; i++ {
		a[i] = ra.Float64()
		b[i] = rb.Float64()
		labels[i] = rl.Bernoulli(a[i] * b[i])
	}
	d, err := dataset.New("complementary", a, labels)
	if err != nil {
		panic(err)
	}
	return d, [][]float64{a, b}
}

// TestLogisticFusionBeatsMediocreSingles mirrors the engine-level
// TestSUPGBeatsUniformOnPrecisionTarget for the multi-proxy extension:
// at the same total oracle budget, fused (logistic) selection must
// yield strictly better quality than either mediocre single proxy, and
// the recall guarantee must keep holding (failure rate <= delta +
// slack over deterministic trials) — fusion changes quality, never
// validity.
func TestLogisticFusionBeatsMediocreSingles(t *testing.T) {
	d, cols := complementaryProxyDataset(21, 50000)
	spec := core.Spec{Kind: core.RecallTarget, Gamma: 0.9, Delta: 0.05, Budget: 2000}
	cfg := core.DefaultSUPG()
	r := randx.New(22)
	trials := 30

	var fusedFails int
	quality := func(scores [][]float64, fusion Fusion, streamBase uint64, countFails bool) float64 {
		sum := 0.0
		for trial := 0; trial < trials; trial++ {
			res, err := Select(r.Stream(streamBase+uint64(trial)), scores, oracle.NewSimulated(d), spec, cfg, Fuser{Kind: fusion})
			if err != nil {
				t.Fatal(err)
			}
			if res.OracleCalls > spec.Budget {
				t.Fatalf("oracle calls %d exceed budget %d", res.OracleCalls, spec.Budget)
			}
			e := metrics.Evaluate(d, res.Indices)
			if countFails && e.Recall < spec.Gamma {
				fusedFails++
			}
			sum += e.Precision
		}
		return sum / float64(trials)
	}

	singleA := quality(cols[:1], FuseMean, 1000, false) // one-member mean = the bare column
	singleB := quality(cols[1:], FuseMean, 2000, false)
	fused := quality(cols, FuseLogistic, 3000, true)

	best := singleA
	if singleB > best {
		best = singleB
	}
	t.Logf("fused=%.4f singleA=%.4f singleB=%.4f fails=%d", fused, singleA, singleB, fusedFails)
	if fused <= best {
		t.Fatalf("fused logistic precision %.4f should strictly beat best single proxy %.4f (a=%.4f b=%.4f)",
			fused, best, singleA, singleB)
	}
	if rate := float64(fusedFails) / float64(trials); rate > spec.Delta+0.10 {
		t.Fatalf("fused recall-guarantee failure rate %.3f above delta %.2f + slack", rate, spec.Delta)
	}
}

func TestFuserLabelFree(t *testing.T) {
	cols := [][]float64{{0.2, 0.8}, {0.4, 0.2}}
	for _, f := range []Fuser{{Kind: FuseMean}, {Kind: FuseMax}} {
		if f.Kind == FuseLogistic {
			t.Errorf("%v claims to need an oracle", f.Kind)
		}
		out, err := f.Fuse(nil, cols, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Scores) != 2 || out.CalibrationCalls != 0 || out.Model != nil {
			t.Errorf("%v fused %+v", f.Kind, out)
		}
	}
	if _, err := (Fuser{Kind: Fusion(9)}).Fuse(nil, cols, nil); err == nil {
		t.Error("unknown fuser kind accepted")
	}
	if _, err := (Fuser{Kind: FuseLogistic, CalibrationBudget: 50}).Fuse(randx.New(1), cols, nil); err == nil {
		t.Error("logistic fuse without an oracle accepted")
	}
}

func TestFuserLogisticMetadata(t *testing.T) {
	d, cols := twoProxyDataset(13, 20000)
	budgeted := oracle.NewBudgeted(oracle.NewSimulated(d), 1000)
	f := Fuser{Kind: FuseLogistic, CalibrationBudget: 120}
	if f.Kind != FuseLogistic {
		t.Error("logistic fuser claims label-free")
	}
	out, err := f.Fuse(randx.New(14), cols, budgeted)
	if err != nil {
		t.Fatal(err)
	}
	if out.CalibrationCalls != 120 || budgeted.Used() != 120 {
		t.Errorf("calibration used %d (oracle %d), want 120", out.CalibrationCalls, budgeted.Used())
	}
	if out.Model == nil || len(out.Model.Weights) != 2 {
		t.Errorf("model %+v", out.Model)
	}
	if len(out.Scores) != d.Len() {
		t.Errorf("fused column length %d", len(out.Scores))
	}
	for i, s := range out.Scores {
		if s <= 0 || s >= 1 {
			t.Fatalf("fused score %v at %d outside (0,1)", s, i)
		}
	}
}

func TestFusionStrings(t *testing.T) {
	if FuseMean.String() != "mean" || FuseMax.String() != "max" || FuseLogistic.String() != "logistic" {
		t.Error("fusion strings")
	}
}
