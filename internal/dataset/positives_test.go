package dataset

import (
	"bytes"
	"testing"

	"supg/internal/randx"
)

// recount is the O(n) label scan PositiveCount used to perform on
// every call; the count fixed at construction must always equal it.
func recount(d *Dataset) int {
	c := 0
	for i := 0; i < d.Len(); i++ {
		if d.TrueLabel(i) {
			c++
		}
	}
	return c
}

func TestPositiveCountMatchesRecount(t *testing.T) {
	r := randx.New(11)
	base := Beta(r, 5000, 0.5, 2)
	extra := NightStreetSimN(r.Stream(1), 777)
	labels := make([]bool, base.Len())
	for i := range labels {
		labels[i] = i%3 == 0
	}
	fromCols, err := FromColumns("cols", base.Scores(), labels)
	if err != nil {
		t.Fatal(err)
	}

	var bin bytes.Buffer
	if err := WriteBinary(&bin, base); err != nil {
		t.Fatal(err)
	}
	binRead, err := ReadBinary(bytes.NewReader(bin.Bytes()), "bin")
	if err != nil {
		t.Fatal(err)
	}
	binSized, err := ReadBinarySized(bytes.NewReader(bin.Bytes()), "bin", int64(bin.Len()))
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := WriteCSV(&csv, extra); err != nil {
		t.Fatal(err)
	}
	csvRead, err := ReadCSV(&csv, "csv")
	if err != nil {
		t.Fatal(err)
	}
	train, test := ShiftBeta(r, 3000, 0.5, 2, 3)

	cases := map[string]*Dataset{
		"New":                      MustNew("n", []float64{0.1, 0.9, 0.5}, []bool{false, true, true}),
		"FromColumns":              fromCols,
		"Beta":                     base,
		"Append":                   base.Append(extra),
		"Append of appended":       base.Append(extra).Append(fromCols),
		"Slice":                    base.Slice(100, 2100),
		"Slice empty of positives": MustNew("z", []float64{0.1, 0.2}, []bool{false, false}).Slice(0, 2),
		"Clone":                    extra.Clone(),
		"WithName":                 extra.WithName("renamed"),
		"ReadBinary":               binRead,
		"ReadBinarySized":          binSized,
		"ReadCSV":                  csvRead,
		"FogDrift":                 ApplyFogDrift(r, base, 0.5),
		"DayDrift":                 ApplyDayDrift(r, extra),
		"ShiftBeta train":          train,
		"ShiftBeta test":           test,
		"AddProxyNoise":            AddProxyNoise(r, base, 0.05),
		"ImageNetSim":              ImageNetSim(r),
	}
	for _, pair := range StandardDriftPairs(r, 2000) {
		cases["drift "+pair.Description+" train"] = pair.Train
		cases["drift "+pair.Description+" test"] = pair.Test
	}
	for name, d := range cases {
		if got, want := d.PositiveCount(), recount(d); got != want {
			t.Errorf("%s: PositiveCount %d, recount %d", name, got, want)
		}
		if s := d.Summarize(); s.Positives != recount(d) {
			t.Errorf("%s: Summarize reports %d positives, recount %d", name, s.Positives, recount(d))
		}
	}
}
