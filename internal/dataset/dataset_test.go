package dataset

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"supg/internal/randx"
)

func TestNewValidation(t *testing.T) {
	if _, err := New("x", nil, nil); err == nil {
		t.Error("empty dataset should error")
	}
	if _, err := New("x", []float64{0.5}, []bool{true, false}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := New("x", []float64{1.5}, []bool{true}); err == nil {
		t.Error("score > 1 should error")
	}
	if _, err := New("x", []float64{-0.1}, []bool{true}); err == nil {
		t.Error("score < 0 should error")
	}
	if _, err := New("x", []float64{math.NaN()}, []bool{true}); err == nil {
		t.Error("NaN score should error")
	}
	d, err := New("ok", []float64{0, 0.5, 1}, []bool{false, true, true})
	if err != nil {
		t.Fatalf("valid dataset rejected: %v", err)
	}
	if d.Name() != "ok" || d.Len() != 3 {
		t.Error("accessors wrong")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew should panic on invalid input")
		}
	}()
	MustNew("bad", []float64{2}, []bool{true})
}

func TestAccessors(t *testing.T) {
	d := MustNew("d", []float64{0.2, 0.8, 0.5}, []bool{false, true, true})
	if d.Score(1) != 0.8 {
		t.Error("Score")
	}
	if !d.TrueLabel(1) || d.TrueLabel(0) {
		t.Error("TrueLabel")
	}
	if d.PositiveCount() != 2 {
		t.Error("PositiveCount")
	}
	if math.Abs(d.PositiveRate()-2.0/3) > 1e-12 {
		t.Error("PositiveRate")
	}
}

func TestCloneIndependence(t *testing.T) {
	d := MustNew("d", []float64{0.2, 0.8}, []bool{false, true})
	c := d.Clone()
	c.Scores()[0] = 0.99
	if d.Score(0) != 0.2 {
		t.Error("Clone shares score storage")
	}
}

func TestWithName(t *testing.T) {
	d := MustNew("a", []float64{0.5}, []bool{true})
	if d.WithName("b").Name() != "b" {
		t.Error("WithName")
	}
	if d.Name() != "a" {
		t.Error("WithName mutated original")
	}
}

func TestSummarize(t *testing.T) {
	d := MustNew("s", []float64{0.1, 0.9, 0.5, 0.2}, []bool{false, true, false, false})
	s := d.Summarize()
	if s.Records != 4 || s.Positives != 1 || s.TPR != 0.25 || s.Name != "s" {
		t.Errorf("summary wrong: %+v", s)
	}
}

func TestBetaGeneratorCalibration(t *testing.T) {
	r := randx.New(1)
	d := Beta(r, 200000, 0.01, 2)
	// Labels are Bernoulli(score): the TPR should match the mean score.
	meanScore := 0.0
	for _, s := range d.Scores() {
		meanScore += s
	}
	meanScore /= float64(d.Len())
	if math.Abs(d.PositiveRate()-meanScore) > 0.002 {
		t.Errorf("TPR %v far from mean score %v (calibration broken)", d.PositiveRate(), meanScore)
	}
	// Mean of Beta(0.01, 2) is 0.01/2.01.
	want := 0.01 / 2.01
	if math.Abs(meanScore-want) > 0.001 {
		t.Errorf("mean score %v, want %v", meanScore, want)
	}
}

func TestBetaGeneratorName(t *testing.T) {
	d := Beta(randx.New(1), 100, 0.01, 1)
	if d.Name() != "Beta(0.01, 1)" {
		t.Errorf("name %q", d.Name())
	}
}

func TestMixtureProfileTPR(t *testing.T) {
	p := MixtureProfile{
		Name: "m", N: 100000, TPR: 0.03,
		PosAlpha: 4, PosBeta: 1.2, NegAlpha: 0.1, NegBeta: 5,
	}
	d := p.Generate(randx.New(2))
	if math.Abs(d.PositiveRate()-0.03) > 0.005 {
		t.Errorf("TPR %v, want ~0.03", d.PositiveRate())
	}
	// Positives should score higher than negatives on average.
	var posSum, negSum float64
	var posN, negN int
	for i := 0; i < d.Len(); i++ {
		if d.TrueLabel(i) {
			posSum += d.Score(i)
			posN++
		} else {
			negSum += d.Score(i)
			negN++
		}
	}
	if posSum/float64(posN) <= negSum/float64(negN) {
		t.Error("positives should have higher mean proxy score")
	}
}

func TestSimProfilesMatchPaper(t *testing.T) {
	r := randx.New(3)
	cases := []struct {
		d      *Dataset
		n      int
		tpr    float64
		tprTol float64
	}{
		{ImageNetSim(r.Stream(1)), 50000, 0.001, 0.0006},
		{OntoNotesSim(r.Stream(2)), 11165, 0.025, 0.006},
		{TACREDSim(r.Stream(3)), 22631, 0.024, 0.006},
		{NightStreetSimN(r.Stream(4), 50000), 50000, 0.04, 0.006},
	}
	for _, c := range cases {
		if c.d.Len() != c.n {
			t.Errorf("%s: n=%d, want %d", c.d.Name(), c.d.Len(), c.n)
		}
		if math.Abs(c.d.PositiveRate()-c.tpr) > c.tprTol {
			t.Errorf("%s: TPR %v, want ~%v", c.d.Name(), c.d.PositiveRate(), c.tpr)
		}
	}
}

func TestAddProxyNoise(t *testing.T) {
	r := randx.New(4)
	d := Beta(r, 50000, 2, 2)
	noisy := AddProxyNoise(r.Stream(1), d, 0.1)
	if noisy.Len() != d.Len() {
		t.Fatal("length changed")
	}
	changed := 0
	for i := 0; i < d.Len(); i++ {
		s := noisy.Score(i)
		if s < 0 || s > 1 {
			t.Fatalf("noisy score %v outside [0,1]", s)
		}
		if s != d.Score(i) {
			changed++
		}
		if noisy.TrueLabel(i) != d.TrueLabel(i) {
			t.Fatal("noise must not change labels")
		}
	}
	if changed < d.Len()/2 {
		t.Errorf("only %d/%d scores changed", changed, d.Len())
	}
	if !strings.Contains(noisy.Name(), "noise") {
		t.Errorf("name %q should mention noise", noisy.Name())
	}
}

func TestScoreStdDev(t *testing.T) {
	d := MustNew("sd", []float64{0, 1, 0, 1}, []bool{false, true, false, true})
	if math.Abs(d.ScoreStdDev()-0.5) > 1e-12 {
		t.Errorf("ScoreStdDev %v, want 0.5", d.ScoreStdDev())
	}
}

func TestFogDriftDegradesPositives(t *testing.T) {
	r := randx.New(5)
	d := ImageNetSim(r)
	fog := ApplyFogDrift(r.Stream(1), d, 0.5)
	var before, after float64
	n := 0
	for i := 0; i < d.Len(); i++ {
		if d.TrueLabel(i) {
			before += d.Score(i)
			after += fog.Score(i)
			n++
		}
	}
	if n == 0 {
		t.Skip("no positives generated")
	}
	if after >= before {
		t.Errorf("fog should reduce positive scores: %v -> %v", before/float64(n), after/float64(n))
	}
	if !strings.Contains(fog.Name(), "fog") {
		t.Errorf("name %q", fog.Name())
	}
}

func TestDayDriftPerturbsScores(t *testing.T) {
	r := randx.New(6)
	d := NightStreetSimN(r, 20000)
	day2 := ApplyDayDrift(r.Stream(1), d)
	same := 0
	for i := 0; i < d.Len(); i++ {
		if day2.Score(i) == d.Score(i) {
			same++
		}
		if s := day2.Score(i); s < 0 || s > 1 {
			t.Fatalf("score %v outside [0,1]", s)
		}
	}
	if same > d.Len()/2 {
		t.Errorf("day drift left %d/%d scores unchanged", same, d.Len())
	}
}

func TestShiftBeta(t *testing.T) {
	train, test := ShiftBeta(randx.New(7), 50000, 0.01, 1, 2)
	// Beta(0.01,1) has mean ~0.0099, Beta(0.01,2) ~0.005: the shift
	// must lower the positive rate.
	if train.PositiveRate() <= test.PositiveRate() {
		t.Errorf("expected TPR drop: train %v, test %v", train.PositiveRate(), test.PositiveRate())
	}
	if !strings.Contains(test.Name(), "shifted") {
		t.Errorf("test name %q", test.Name())
	}
}

func TestStandardDriftPairs(t *testing.T) {
	pairs := StandardDriftPairs(randx.New(8), 5000)
	if len(pairs) != 3 {
		t.Fatalf("want 3 drift pairs, got %d", len(pairs))
	}
	for _, p := range pairs {
		if p.Train == nil || p.Test == nil || p.Description == "" {
			t.Errorf("incomplete pair %+v", p.Description)
		}
		if p.Train.Len() != 5000 {
			t.Errorf("%s: train size %d", p.Description, p.Train.Len())
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := MustNew("rt", []float64{0.25, 0.75, 0}, []bool{false, true, false})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, "rt")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != d.Len() {
		t.Fatalf("roundtrip length %d", got.Len())
	}
	for i := 0; i < d.Len(); i++ {
		if got.Score(i) != d.Score(i) || got.TrueLabel(i) != d.TrueLabel(i) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"wrong,header,here\n0,0.5,1\n",
		"id,proxy_score,label\n0,notanumber,1\n",
		"id,proxy_score,label\n0,0.5,maybe\n",
		"id,proxy_score,label\n0,1.5,1\n", // out-of-range score caught by New
	}
	for _, src := range cases {
		if _, err := ReadCSV(strings.NewReader(src), "bad"); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestReadCSVAcceptsBoolWords(t *testing.T) {
	src := "id,proxy_score,label\n0,0.5,true\n1,0.6,false\n"
	d, err := ReadCSV(strings.NewReader(src), "words")
	if err != nil {
		t.Fatal(err)
	}
	if !d.TrueLabel(0) || d.TrueLabel(1) {
		t.Error("bool words parsed wrong")
	}
}
