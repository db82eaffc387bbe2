package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
)

// table is the benchmark's own copy of one generated table: the ground
// truth and every score source a query may name. Columns are allocated
// at their final length up front, so appends fill them in place while
// the benchmark's UDFs read them; records [0, n) are live.
type table struct {
	name   string
	labels []bool
	scores []float64 // <name>_proxy, the dataset's own score
	soft   []float64 // <name>_proxy_soft = sqrt(score)
	fused  []float64 // FUSE(mean, <name>_proxy, <name>_proxy_soft)
	n      atomic.Int64
}

// newTable copies a generated dataset's columns into a table with room
// for grow more records, deriving the soft and fused sources.
func newTable(name string, scores []float64, labels []bool, grow int) *table {
	total := len(scores) + grow
	t := &table{
		name:   name,
		labels: make([]bool, total),
		scores: make([]float64, total),
		soft:   make([]float64, total),
		fused:  make([]float64, total),
	}
	t.extend(scores, labels)
	return t
}

// len is the number of live records.
func (t *table) len() int { return int(t.n.Load()) }

// extend fills the next records and then publishes the new length, so a
// reader that loads n sees every record below it. Only one goroutine
// extends a table, before any query can name the new ids.
func (t *table) extend(scores []float64, labels []bool) {
	n := t.len()
	if n+len(scores) > len(t.scores) {
		panic("table: extend beyond the room reserved at generation")
	}
	copy(t.labels[n:], labels)
	for i, s := range scores {
		soft := math.Sqrt(s)
		t.scores[n+i] = s
		t.soft[n+i] = soft
		t.fused[n+i] = meanOfTwo(s, soft)
	}
	t.n.Store(int64(n + len(scores)))
}

// meanOfTwo reproduces FUSE(mean, a, b) as the repository defines it:
// each member scaled by 1/len and summed in member order, with every
// step rounded to float64.
func meanOfTwo(a, b float64) float64 {
	const inv = 1.0 / 2
	v := float64(0 + float64(a*inv))
	return float64(v + float64(b*inv))
}

// source names the score column a query selects over.
type source int

const (
	srcProxy source = iota
	srcFused
)

// column is the full-length score column of a source; records at and
// beyond len() are not live yet.
func (t *table) column(s source) []float64 {
	if s == srcFused {
		return t.fused
	}
	return t.scores
}

// targetKind is the query form: recall target, precision target, or
// joint target.
type targetKind int

const (
	kindRT targetKind = iota
	kindPT
	kindJT
)

// queryText is one fixed SQL text and what the checker needs to judge
// its answers.
type queryText struct {
	id     int
	sql    string
	table  *table
	src    source
	kind   targetKind
	recall float64 // recall target γ (RT, JT)
	prec   float64 // precision target γ (PT, JT)
}

// newText renders a query over t. limit is ignored for joint targets,
// which take no ORACLE LIMIT.
func newText(id int, t *table, src source, kind targetKind, limit, recallPct, precPct int) *queryText {
	using := fmt.Sprintf("%s_proxy(x)", t.name)
	if src == srcFused {
		using = fmt.Sprintf("FUSE(mean, %s_proxy(x), %s_proxy_soft(x))", t.name, t.name)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "SELECT * FROM %s WHERE %s_oracle(x) = true ", t.name, t.name)
	if kind != kindJT {
		fmt.Fprintf(&b, "ORACLE LIMIT %d ", limit)
	}
	fmt.Fprintf(&b, "USING %s ", using)
	q := &queryText{id: id, table: t, src: src, kind: kind}
	if kind == kindRT || kind == kindJT {
		fmt.Fprintf(&b, "RECALL TARGET %d%% ", recallPct)
		q.recall = float64(recallPct) / 100
	}
	if kind == kindPT || kind == kindJT {
		fmt.Fprintf(&b, "PRECISION TARGET %d%% ", precPct)
		q.prec = float64(precPct) / 100
	}
	b.WriteString("WITH PROBABILITY 95%")
	q.sql = b.String()
	return q
}

// answer is one /v1/query response as the benchmark reads it. The id
// list is never materialized: idScan folds it while the body is read.
type answer struct {
	Returned          int      `json:"returned"`
	Tau               *float64 `json:"tau"`
	OracleCalls       int      `json:"oracle_calls"`
	ProxyCalls        int      `json:"proxy_calls"`
	IndexRecovered    bool     `json:"index_recovered"`
	LabelCacheHits    int      `json:"label_cache_hits"`
	AchievedPrecision float64  `json:"achieved_precision"`
	AchievedRecall    float64  `json:"achieved_recall"`
	Truncated         bool     `json:"truncated"`

	bytes int     // response body size
	ids   *idScan // non-nil when the request set include_indices
}

// tau is the answer's threshold, +Inf when the server certified none.
func (a *answer) tau() float64 {
	if a.Tau == nil {
		return math.Inf(1)
	}
	return *a.Tau
}

// idScan checks an ascending id list against the benchmark's ground
// truth one id at a time.
type idScan struct {
	scores []float64
	labels []bool
	tau    float64
	joint  bool // every returned id must be a true positive

	count     int
	atLeast   int // ids with score >= tau
	last      int
	unordered int // ids not strictly above their predecessor
	outside   int // ids outside the table
	falsePos  int // ids below tau (any id, for joint targets) that are not positives
	digest    uint64
}

// newIDScan returns a scan over a table's live records; its τ is set
// from the answer before the ids are fed.
func newIDScan(scores []float64, labels []bool, joint bool) *idScan {
	return &idScan{scores: scores, labels: labels, joint: joint, last: -1, digest: fnvOffset}
}

func (s *idScan) visit(id int) {
	s.count++
	if id <= s.last {
		s.unordered++
	}
	s.last = id
	s.digest = fnvInt(s.digest, uint64(id))
	if id < 0 || id >= len(s.scores) {
		s.outside++
		return
	}
	above := s.scores[id] >= s.tau
	if above {
		s.atLeast++
	}
	if (s.joint || !above) && !s.labels[id] {
		s.falsePos++
	}
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvInt folds the 8 little-endian bytes of v into an FNV-1a hash.
func fnvInt(h, v uint64) uint64 {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// fnvString is FNV-1a over s, the hash the engine derives each query's
// random stream from.
func fnvString(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// checker judges answers against the benchmark's own copy of the data.
// Threshold counts are memoized: repeated texts repeat their τ.
type checker struct {
	atLeast   map[geKey][2]int
	positives map[posKey]int
	first     map[int]*opRecord // answer key → its first answer
	firstIDs  map[int]*opRecord // answer key → its first answer with ids
}

type geKey struct {
	table string
	src   source
	n     int
	tau   uint64
}

type posKey struct {
	table string
	n     int
}

func newChecker() *checker {
	return &checker{
		atLeast:   map[geKey][2]int{},
		positives: map[posKey]int{},
		first:     map[int]*opRecord{},
		firstIDs:  map[int]*opRecord{},
	}
}

// countAtLeast returns |{i < n : s_i >= tau}| and how many of those
// are positives.
func (c *checker) countAtLeast(t *table, src source, n int, tau float64) (int, int) {
	k := geKey{t.name, src, n, math.Float64bits(tau)}
	if v, ok := c.atLeast[k]; ok {
		return v[0], v[1]
	}
	col := t.column(src)[:n]
	ge, tp := 0, 0
	for i, s := range col {
		if s >= tau {
			ge++
			if t.labels[i] {
				tp++
			}
		}
	}
	c.atLeast[k] = [2]int{ge, tp}
	return ge, tp
}

func (c *checker) countPositives(t *table, n int) int {
	k := posKey{t.name, n}
	if v, ok := c.positives[k]; ok {
		return v
	}
	p := 0
	for _, l := range t.labels[:n] {
		if l {
			p++
		}
	}
	c.positives[k] = p
	return p
}

// check judges one answered op. It reports whether the answer meets its
// query's targets, by the recall and precision the benchmark derives,
// and returns an error naming every check the answer fails:
//
//   - returned covers |{i : score >= τ}|, and the excess is no larger
//     than the labels bought (RT and PT);
//   - the derived recall and precision equal the server's achieved_*;
//   - an id list is ascending, holds every id with score >= τ, and every
//     id below τ (every id, for joint targets) is a true positive;
//   - an answer repeating an earlier key (same text, unchanged table)
//     has the same τ, returned, oracle_calls and id digest.
func (c *checker) check(o *opRecord) (bool, error) {
	a, q := &o.ans, o.text
	var bad []string
	tau := a.tau()
	ge, tpGE := 0, 0
	if !math.IsInf(tau, 1) {
		ge, tpGE = c.countAtLeast(q.table, q.src, o.n, tau)
	}
	var tp int
	switch {
	case q.kind == kindJT:
		// Joint answers hold oracle-verified positives only.
		tp = a.Returned
	default:
		if a.Returned < ge {
			bad = append(bad, fmt.Sprintf("returned %d < %d records with score >= tau", a.Returned, ge))
		}
		if extra := a.Returned - ge; extra > a.OracleCalls {
			bad = append(bad, fmt.Sprintf("%d records below tau exceed the %d labels bought", extra, a.OracleCalls))
		}
		// Records below τ are sampled positives.
		tp = tpGE + max(a.Returned-ge, 0)
	}
	precision, recall := 1.0, 1.0
	if a.Returned > 0 {
		precision = float64(tp) / float64(a.Returned)
	}
	if p := c.countPositives(q.table, o.n); p > 0 {
		recall = float64(tp) / float64(p)
	}
	if precision != a.AchievedPrecision || recall != a.AchievedRecall {
		bad = append(bad, fmt.Sprintf("derived precision/recall %v/%v != achieved %v/%v",
			precision, recall, a.AchievedPrecision, a.AchievedRecall))
	}
	met := recall >= q.recall && precision >= q.prec
	if s := a.ids; s != nil {
		switch {
		case s.count != a.Returned || a.Truncated:
			bad = append(bad, fmt.Sprintf("id list holds %d ids, returned says %d", s.count, a.Returned))
		case s.unordered > 0:
			bad = append(bad, fmt.Sprintf("%d ids out of ascending order", s.unordered))
		case s.outside > 0:
			bad = append(bad, fmt.Sprintf("%d ids outside the table", s.outside))
		case s.falsePos > 0:
			bad = append(bad, fmt.Sprintf("%d returned ids are not true positives", s.falsePos))
		case q.kind != kindJT && s.atLeast != ge:
			bad = append(bad, fmt.Sprintf("id list holds %d of the %d ids with score >= tau", s.atLeast, ge))
		}
	}
	if prev, ok := c.first[o.key]; ok {
		if !sameAnswer(&prev.ans, a) {
			bad = append(bad, fmt.Sprintf("repeat of op %d differs: tau/returned/oracle_calls %v/%d/%d vs %v/%d/%d",
				prev.k, prev.ans.tau(), prev.ans.Returned, prev.ans.OracleCalls, tau, a.Returned, a.OracleCalls))
		}
	} else {
		c.first[o.key] = o
	}
	if a.ids != nil {
		if prev, ok := c.firstIDs[o.key]; ok {
			if prev.ans.ids.digest != a.ids.digest {
				bad = append(bad, fmt.Sprintf("repeat of op %d returned different ids", prev.k))
			}
		} else {
			c.firstIDs[o.key] = o
		}
	}
	if len(bad) > 0 {
		return met, errors.New(strings.Join(bad, "; "))
	}
	return met, nil
}

func sameAnswer(a, b *answer) bool {
	return math.Float64bits(a.tau()) == math.Float64bits(b.tau()) &&
		a.Returned == b.Returned && a.OracleCalls == b.OracleCalls
}

// digest folds every distinct answer key's first answer — τ, returned,
// oracle_calls and, where one was read, the id digest — into one hash.
// Every run answers the same keys, so equal digests mean equal results.
func (c *checker) digest() uint64 {
	keys := make([]int, 0, len(c.first))
	for k := range c.first {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	h := uint64(fnvOffset)
	for _, k := range keys {
		a := &c.first[k].ans
		h = fnvInt(h, uint64(k))
		h = fnvInt(h, math.Float64bits(a.tau()))
		h = fnvInt(h, uint64(a.Returned))
		h = fnvInt(h, uint64(a.OracleCalls))
		if o, ok := c.firstIDs[k]; ok {
			h = fnvInt(h, o.ans.ids.digest)
		}
	}
	return h
}
