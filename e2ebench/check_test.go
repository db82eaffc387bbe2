package main

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"supg/internal/multiproxy"
	"supg/internal/randx"
)

// testTable is a small deterministic table: scores spread over [0, 1)
// and positives concentrated at high scores.
func testTable(n int) *table {
	r := randx.New(7)
	scores := make([]float64, n)
	labels := make([]bool, n)
	for i := range scores {
		scores[i] = r.Float64()
		labels[i] = r.Float64() < scores[i]*scores[i]
	}
	return newTable("t", scores, labels, 0)
}

// correctAnswer builds the answer a correct server gives for q at
// threshold tau: every id with score >= tau plus the positives below
// tau among the first extra ids.
func correctAnswer(tb *table, q *queryText, tau float64, extra int) answer {
	n := tb.len()
	col := tb.column(q.src)[:n]
	var ids []int
	tp, pos := 0, 0
	for i := 0; i < n; i++ {
		if tb.labels[i] {
			pos++
		}
		if col[i] >= tau || (i < extra && tb.labels[i]) {
			ids = append(ids, i)
			if tb.labels[i] {
				tp++
			}
		}
	}
	a := answer{Returned: len(ids), Tau: &tau, OracleCalls: extra}
	a.AchievedPrecision = float64(tp) / float64(len(ids))
	a.AchievedRecall = float64(tp) / float64(pos)
	return a
}

// idsOf renders the answer's id list as the server writes it.
func idsOf(tb *table, q *queryText, tau float64, extra int) []int {
	col := tb.column(q.src)[:tb.len()]
	var ids []int
	for i := range col {
		if col[i] >= tau || (i < extra && tb.labels[i]) {
			ids = append(ids, i)
		}
	}
	return ids
}

// scanned feeds ids through parseAnswer as a server body would carry
// them and returns the parsed answer.
func scanned(t *testing.T, tb *table, q *queryText, a answer, ids []int) answer {
	t.Helper()
	var body strings.Builder
	tau := "null"
	if a.Tau != nil {
		tau = fmt.Sprint(*a.Tau)
	}
	fmt.Fprintf(&body, `{"returned":%d,"tau":%s,"oracle_calls":%d,"proxy_calls":0,"label_cache_hits":0,"elapsed_ms":1.5,"achieved_precision":%v,"achieved_recall":%v`,
		a.Returned, tau, a.OracleCalls, a.AchievedPrecision, a.AchievedRecall)
	if ids != nil {
		body.WriteString(`,"indices":[`)
		for i, id := range ids {
			if i > 0 {
				body.WriteByte(',')
			}
			fmt.Fprint(&body, id)
		}
		body.WriteByte(']')
	}
	body.WriteString("}\n")
	n := tb.len()
	scan := newIDScan(tb.column(q.src)[:n], tb.labels[:n], q.kind == kindJT)
	var scratch []byte
	got, err := parseAnswer([]byte(body.String()), scan, &scratch)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return got
}

func checkOne(ck *checker, q *queryText, n, k int, a answer) error {
	_, err := ck.check(&opRecord{opSpec: opSpec{key: q.id, text: q, batch: -1}, k: k, n: n, ans: a})
	return err
}

func TestCheckerAcceptsCorrectAnswers(t *testing.T) {
	tb := testTable(5000)
	q := newText(3, tb, srcProxy, kindRT, 200, 90, 0)
	a := correctAnswer(tb, q, 0.6, 200)
	withIDs := scanned(t, tb, q, a, idsOf(tb, q, 0.6, 200))
	ck := newChecker()
	for k, ans := range []answer{a, withIDs, a, withIDs} {
		if err := checkOne(ck, q, tb.len(), k, ans); err != nil {
			t.Fatalf("correct answer %d rejected: %v", k, err)
		}
	}
	if withIDs.ids.count != a.Returned {
		t.Errorf("scanned %d ids, returned %d", withIDs.ids.count, a.Returned)
	}
	// A τ of null (no certified threshold) returns sampled positives only.
	none := answer{Returned: 0, OracleCalls: 50, AchievedPrecision: 1}
	pq := newText(4, tb, srcProxy, kindPT, 50, 0, 99)
	if err := checkOne(ck, pq, tb.len(), 9, none); err != nil {
		t.Errorf("empty answer with null tau rejected: %v", err)
	}
}

// TestCheckerCatchesCorruption corrupts a correct answer one field at a
// time; every check must catch its corruption.
func TestCheckerCatchesCorruption(t *testing.T) {
	tb := testTable(5000)
	q := newText(3, tb, srcProxy, kindRT, 200, 90, 0)
	const tau, extra = 0.6, 200
	good := correctAnswer(tb, q, tau, extra)
	ids := idsOf(tb, q, tau, extra)
	firstNeg := -1 // a negative below tau, not returned
	for i := range ids {
		if i > 0 && ids[i] > ids[i-1]+1 {
			for j := ids[i-1] + 1; j < ids[i]; j++ {
				if !tb.labels[j] && tb.scores[j] < tau {
					firstNeg = j
					break
				}
			}
		}
		if firstNeg >= 0 {
			break
		}
	}
	ge, _ := newChecker().countAtLeast(tb, srcProxy, tb.len(), tau)
	cases := []struct {
		name    string
		corrupt func(a *answer, ids []int) []int
		want    string
	}{
		{"returned below the threshold count", func(a *answer, ids []int) []int {
			a.Returned = ge - 1
			return nil
		}, "records with score >= tau"},
		{"excess beyond labels bought", func(a *answer, ids []int) []int {
			a.OracleCalls = a.Returned - ge - 1
			return nil
		}, "exceed the"},
		{"achieved recall off", func(a *answer, ids []int) []int {
			a.AchievedRecall = math.Nextafter(a.AchievedRecall, 2)
			return nil
		}, "derived precision/recall"},
		{"achieved precision off", func(a *answer, ids []int) []int {
			a.AchievedPrecision -= 0.001
			return nil
		}, "derived precision/recall"},
		{"ids out of order", func(a *answer, ids []int) []int {
			ids[3], ids[4] = ids[4], ids[3]
			return ids
		}, "ascending"},
		{"id above tau missing", func(a *answer, ids []int) []int {
			for i, id := range ids {
				if tb.scores[id] >= tau {
					// Swap it for a sampled positive elsewhere, keeping the count.
					ids = append(ids[:i:i], ids[i+1:]...)
					break
				}
			}
			a.Returned--
			a.AchievedPrecision, a.AchievedRecall = recount(tb, ids)
			return ids
		}, "ids with score >= tau"},
		{"negative below tau returned", func(a *answer, ids []int) []int {
			ids = insertSorted(ids, firstNeg)
			a.Returned++
			a.AchievedPrecision, a.AchievedRecall = recount(tb, ids)
			return ids
		}, "not true positives"},
		{"id count differs from returned", func(a *answer, ids []int) []int {
			return ids[:len(ids)-1]
		}, "id list holds"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := good
			tauV := tau
			a.Tau = &tauV
			cids := c.corrupt(&a, append([]int(nil), ids...))
			if cids != nil {
				a = scanned(t, tb, q, a, cids)
			}
			err := checkOne(newChecker(), q, tb.len(), 0, a)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("got %v, want an error containing %q", err, c.want)
			}
		})
	}

	// Repeats of one key must match the first answer.
	repeats := []struct {
		name    string
		corrupt func(a *answer)
		ids     bool
		want    string
	}{
		{"different tau", func(a *answer) { v := *a.Tau + 1e-9; a.Tau = &v }, false, "repeat of op"},
		{"different returned", func(a *answer) { a.Returned++ }, false, "repeat of op"},
		{"different oracle_calls", func(a *answer) { a.OracleCalls++ }, false, "repeat of op"},
		{"different ids", nil, true, "different ids"},
	}
	for _, c := range repeats {
		t.Run("repeat with "+c.name, func(t *testing.T) {
			ck := newChecker()
			first := scanned(t, tb, q, good, ids)
			if err := checkOne(ck, q, tb.len(), 0, first); err != nil {
				t.Fatal(err)
			}
			again := good
			if c.corrupt != nil {
				c.corrupt(&again)
			}
			if c.ids {
				// Same count and quality, different membership: trade the
				// last sampled positive below tau for a different one.
				alt := altIDs(tb, ids, tau)
				again = scanned(t, tb, q, good, alt)
			}
			err := checkOne(ck, q, tb.len(), 1, again)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("got %v, want an error containing %q", err, c.want)
			}
		})
	}
}

// recount is the precision and recall of ids over the whole table.
func recount(tb *table, ids []int) (float64, float64) {
	tp, pos := 0, 0
	for _, id := range ids {
		if tb.labels[id] {
			tp++
		}
	}
	for _, l := range tb.labels[:tb.len()] {
		if l {
			pos++
		}
	}
	return float64(tp) / float64(len(ids)), float64(tp) / float64(pos)
}

func insertSorted(ids []int, v int) []int {
	for i, id := range ids {
		if id > v {
			return append(ids[:i:i], append([]int{v}, ids[i:]...)...)
		}
	}
	return append(ids, v)
}

// altIDs swaps the last returned positive below tau for another
// positive below tau that was not returned.
func altIDs(tb *table, ids []int, tau float64) []int {
	in := map[int]bool{}
	for _, id := range ids {
		in[id] = true
	}
	drop := -1
	for i := len(ids) - 1; i >= 0; i-- {
		if tb.scores[ids[i]] < tau {
			drop = ids[i]
			break
		}
	}
	for j := tb.len() - 1; j >= 0; j-- {
		if !in[j] && tb.labels[j] && tb.scores[j] < tau {
			out := []int{}
			for _, id := range ids {
				if id != drop {
					out = append(out, id)
				}
			}
			return insertSorted(out, j)
		}
	}
	panic("no alternative positive below tau")
}

// TestFusedColumnMatchesFuser pins the benchmark's own FUSE(mean)
// column to the repository's fusion bit for bit: the checker's
// threshold counts depend on it.
func TestFusedColumnMatchesFuser(t *testing.T) {
	tb := testTable(10_000)
	n := tb.len()
	fused, err := multiproxy.Fuser{Kind: multiproxy.FuseMean}.Fuse(nil, [][]float64{tb.scores[:n], tb.soft[:n]}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range fused.Scores {
		if math.Float64bits(v) != math.Float64bits(tb.fused[i]) {
			t.Fatalf("record %d: fuser %v, benchmark %v", i, v, tb.fused[i])
		}
	}
}

func TestTableExtendPublishesLength(t *testing.T) {
	tb := newTable("t", []float64{0.1, 0.9}, []bool{false, true}, 3)
	tb.extend([]float64{0.25, 0.5}, []bool{false, true})
	if tb.len() != 4 || tb.soft[2] != 0.5 || !tb.labels[3] {
		t.Fatalf("after extend: len=%d soft[2]=%v labels[3]=%v", tb.len(), tb.soft[2], tb.labels[3])
	}
	defer func() {
		if recover() == nil {
			t.Error("extend past the reserved room did not panic")
		}
	}()
	tb.extend([]float64{0.1, 0.2}, []bool{false, false})
}

func TestDigestIsOrderFree(t *testing.T) {
	tb := testTable(2000)
	q1 := newText(1, tb, srcProxy, kindRT, 100, 90, 0)
	q2 := newText(2, tb, srcProxy, kindRT, 100, 90, 0)
	a1, a2 := correctAnswer(tb, q1, 0.7, 100), correctAnswer(tb, q2, 0.5, 100)
	c1, c2 := newChecker(), newChecker()
	_ = checkOne(c1, q1, tb.len(), 0, a1)
	_ = checkOne(c1, q2, tb.len(), 1, a2)
	_ = checkOne(c2, q2, tb.len(), 0, a2)
	_ = checkOne(c2, q1, tb.len(), 1, a1)
	if c1.digest() != c2.digest() {
		t.Error("digest depends on the order answers arrived in")
	}
	c3 := newChecker()
	_ = checkOne(c3, q1, tb.len(), 0, a1)
	_ = checkOne(c3, q2, tb.len(), 1, a1)
	if c3.digest() == c1.digest() {
		t.Error("digest ignores a different answer")
	}
}
