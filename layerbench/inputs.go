package main

// Seeded input generation. Everything a workload asks of the program
// under test — the question pools, the misspellings, the unanswerable
// questions, the customers inserted at run time and the order operations
// are issued in — is derived from the --seed argument here, so the same
// seed gives byte-identical inputs. The database itself is fixed (see
// dataSeed).

import (
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"nlidb/internal/benchdata"
	"nlidb/internal/dataset"
	"nlidb/internal/sqldata"
	"nlidb/internal/sqlparse"
)

// Question classes recorded on every generated question.
const (
	classUnanswerable = "unanswerable"
	classMisspelled   = "misspelled"
	classInserted     = "inserted"
)

// question is one natural-language input with its expected outcome:
// the gold statement's result, or a typed refusal when gold is nil.
type question struct {
	text  string
	gold  *sqlparse.SelectStmt
	class string
}

func (q *question) answerable() bool { return q.gold != nil }

// op is one scheduled operation: an Ask of q, or an insert of a new
// customer row (the sequencer in loop.go orders the two kinds).
type op struct {
	q      *question
	insert sqldata.Row
}

// salesPool is the sales-cold question pool: perClass Spider-style Sales
// questions from each of the four complexity classes, plus one
// unanswerable question per unanswerableEvery answerable ones, in seeded
// order. Within a class the distinct questions generated are stratified
// by template (see stratify) and, where the class has fewer than perClass
// of them (Sales has about 15 distinct nested questions), repeated in
// turn, so each is asked equally often.
func salesPool(d *benchdata.Domain, perClass int, seed int64) []*question {
	var pool []*question
	for _, set := range benchdata.SpiderStyle([]*benchdata.Domain{d}, 6*perClass, seed) {
		byClass := map[string][]*question{}
		var classes []string
		for _, q := range distinct(fromPairs(set.Pairs)) {
			if byClass[q.class] == nil {
				classes = append(classes, q.class)
			}
			byClass[q.class] = append(byClass[q.class], q)
		}
		for _, c := range classes {
			picked := stratify(byClass[c], perClass, spiderTemplate)
			for i := 0; i < perClass; i++ {
				pool = append(pool, picked[i%len(picked)])
			}
		}
	}
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	pool = append(pool, unanswerable(r, len(pool)/unanswerableEvery)...)
	r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

// stratify picks n questions taking one from each template (as key names
// it) in turn, so every seed's pool has the same template mix wherever
// the candidates allow. Templates are visited in sorted order and the
// result keeps that round-robin order.
func stratify(cands []*question, n int, key func(*question) string) []*question {
	byKey := map[string][]*question{}
	for _, q := range cands {
		byKey[key(q)] = append(byKey[key(q)], q)
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []*question
	for i := 0; len(out) < n && i < len(cands); i++ {
		for _, k := range keys {
			if i < len(byKey[k]) && len(out) < n {
				out = append(out, byKey[k][i])
			}
		}
	}
	return out
}

// spiderTemplate names a Spider-style question's template: its text
// with every value the gold statement compares against replaced by V and
// every number by N. Whether an engine answers a question depends mostly
// on its template (which column and join path it names), so stratifying
// by it fixes the mix of easy and hard questions from seed to seed.
func spiderTemplate(q *question) string {
	t := " " + q.text + " "
	for _, m := range quotedSQL.FindAllStringSubmatch(q.gold.String(), -1) {
		if v := strings.ReplaceAll(m[1], "''", "'"); v != "" {
			t = strings.ReplaceAll(t, " "+v+" ", " V ")
		}
	}
	fs := strings.Fields(t)
	for i, f := range fs {
		if _, err := strconv.ParseFloat(f, 64); err == nil {
			fs[i] = "N"
		}
	}
	return strings.Join(fs, " ")
}

// quotedSQL matches one quoted text literal in rendered SQL.
var quotedSQL = regexp.MustCompile(`'((?:[^']|'')*)'`)

// unanswerableEvery sets the unanswerable share of the sales-cold pool.
const unanswerableEvery = 8

// distinct keeps the first occurrence of each question text.
func distinct(qs []*question) []*question {
	seen := map[string]bool{}
	var out []*question
	for _, q := range qs {
		if !seen[q.text] {
			seen[q.text] = true
			out = append(out, q)
		}
	}
	return out
}

func fromPairs(pairs []dataset.Pair) []*question {
	out := make([]*question, len(pairs))
	for i, p := range pairs {
		out[i] = &question{text: p.Question, gold: p.SQL, class: p.Complexity.String()}
	}
	return out
}

// offTopic words share no stem and no close spelling with any Sales
// table, column, synonym or value, so no engine can ground them.
var offTopic = []string{"weather", "volcano", "violin", "glacier", "poem", "nebula",
	"recipe", "umbrella", "dolphin", "lantern", "meadow", "thunder", "pyramid", "orchid"}

var offTopicTemplates = []string{
	"why does the %s hum before the %s",
	"tell me a story about a %s and a %s",
	"how loud is a %s compared with a %s",
	"where do the %s and the %s sleep",
}

// unanswerable builds n questions that mention nothing in the database;
// the expected outcome of each is a typed refusal.
func unanswerable(r *rand.Rand, n int) []*question {
	out := make([]*question, n)
	for i := range out {
		a := offTopic[r.Intn(len(offTopic))]
		b := offTopic[r.Intn(len(offTopic))]
		t := offTopicTemplates[r.Intn(len(offTopicTemplates))]
		out[i] = &question{text: fmt.Sprintf(t, a, b), class: classUnanswerable}
	}
	return out
}

// nameGen produces distinct pronounceable single-word names from a small
// syllable inventory, so many names share trigrams and the fuzzy tier of
// value lookup has near neighbours to separate.
type nameGen struct {
	r    *rand.Rand
	used map[string]bool
}

var (
	onsets = []string{"b", "br", "d", "dr", "f", "g", "gr", "k", "kr", "l", "m", "n", "p", "r", "s", "st", "t", "tr", "v", "z"}
	vowels = []string{"a", "e", "i", "o", "u", "ae", "ia", "ou"}
	codas  = []string{"", "", "l", "n", "r", "s", "th", "x"}
)

func newNameGen(seed int64, taken []string) *nameGen {
	g := &nameGen{r: rand.New(rand.NewSource(seed)), used: map[string]bool{}}
	for _, t := range taken {
		g.used[t] = true
	}
	return g
}

// next returns a fresh name of three syllables (seven to eleven letters).
func (g *nameGen) next() string {
	for {
		var sb strings.Builder
		for s := 0; s < 3; s++ {
			sb.WriteString(onsets[g.r.Intn(len(onsets))])
			sb.WriteString(vowels[g.r.Intn(len(vowels))])
		}
		sb.WriteString(codas[g.r.Intn(len(codas))])
		n := sb.String()
		if !g.used[n] {
			g.used[n] = true
			return n
		}
	}
}

// customerRow builds one customer row with seeded attributes.
func customerRow(r *rand.Rand, id int64, name string) sqldata.Row {
	return sqldata.Row{
		sqldata.NewInt(id), sqldata.NewText(name),
		sqldata.NewText(salesCities[r.Intn(len(salesCities))]),
		sqldata.NewText(salesSegments[r.Intn(len(salesSegments))]),
		sqldata.NewFloat(float64(r.Intn(50000)) + r.Float64()),
	}
}

// The Sales domain's city and segment vocabularies (benchdata keeps its
// pools private); grown customers draw from the same ones.
var (
	salesCities   = []string{"Berlin", "Munich", "Hamburg", "Cologne", "Frankfurt", "Stuttgart"}
	salesSegments = []string{"retail", "corporate", "wholesale", "online"}
)

// dataSeed fixes the database: the Sales demo data cmd/nlidb serves by
// default (-seed 1) and, for vocab-2k, the grown customer vocabulary.
// The run's --seed draws everything asked of it. Holding the data still
// keeps the benchmark's figures comparable from seed to seed, while a
// held-out seed still asks different questions.
const dataSeed = 1

// growCustomers adds n generated customers to the Sales database and
// returns a generator, seeded by seed, for names not yet in the table.
func growCustomers(d *benchdata.Domain, n int, seed int64) (*nameGen, error) {
	cust := d.DB.Table("customer")
	taken, err := cust.DistinctText("name")
	if err != nil {
		return nil, err
	}
	g := newNameGen(dataSeed^0x6e616d65, taken)
	r := rand.New(rand.NewSource(dataSeed ^ 0x726f7773))
	next := int64(cust.Len()) + 1
	for i := 0; i < n; i++ {
		if err := cust.Insert(customerRow(r, next, g.next())); err != nil {
			return nil, err
		}
		next++
	}
	fresh := newNameGen(seed^0x6e657773, nil)
	fresh.used = g.used
	return fresh, nil
}

// misspell swaps two adjacent interior letters of a name: a typo the
// fuzzy tier is meant to absorb.
func misspell(r *rand.Rand, s string) string {
	if len(s) < 5 {
		return s
	}
	b := []byte(s)
	i := 1 + r.Intn(len(b)-3)
	for j := 0; j < len(b)-3 && b[i] == b[i+1]; j++ {
		i = 1 + (i % (len(b) - 3))
	}
	b[i], b[i+1] = b[i+1], b[i]
	return string(b)
}

// wikiPool builds a value-bearing WikiSQL-style pool over the customer
// table: only questions whose text names a customer, city or segment
// value are kept, stratified by template (the compared column and the
// number of conditions).
func wikiPool(d *benchdata.Domain, n int, seed int64) []*question {
	var cands []*question
	for _, q := range distinct(fromPairs(benchdata.WikiSQLStyle(d, n*8, seed).Pairs)) {
		if v, _ := goldValue(q.gold); v != "" && containsWord(q.text, v) {
			cands = append(cands, q)
		}
	}
	return stratify(cands, n, wikiTemplate)
}

// wikiTemplate names a WikiSQL-style question's template: its first word,
// whether it aggregates, the column a text value is compared on and the
// number of conditions.
func wikiTemplate(q *question) string {
	_, col := goldValue(q.gold)
	conds := 0
	if q.gold.Where != nil {
		conds = strings.Count(q.gold.Where.String(), " AND ") + 1
	}
	return fmt.Sprintf("%s/%v/%s/%d", strings.Fields(q.text)[0], q.gold.HasAggregate(), col, conds)
}

// goldValue returns the first text literal compared for equality in the
// statement's WHERE clause, and its column.
func goldValue(stmt *sqlparse.SelectStmt) (value, column string) {
	var walk func(e sqlparse.Expr) bool
	walk = func(e sqlparse.Expr) bool {
		switch x := e.(type) {
		case *sqlparse.BinaryExpr:
			if x.Op == "AND" {
				return walk(x.L) || walk(x.R)
			}
			if x.Op != "=" {
				return false
			}
			c, ok1 := x.L.(*sqlparse.ColumnRef)
			l, ok2 := x.R.(*sqlparse.Literal)
			if !ok1 || !ok2 {
				return false
			}
			if v, ok := l.Val.TextOK(); ok {
				value, column = v, strings.ToLower(c.Column)
				return true
			}
		}
		return false
	}
	if stmt.Where != nil {
		walk(stmt.Where)
	}
	return value, column
}

func containsWord(text, w string) bool {
	for _, f := range strings.Fields(text) {
		if f == w {
			return true
		}
	}
	return false
}

func replaceWord(text, from, to string) string {
	fs := strings.Fields(text)
	for i, f := range fs {
		if f == from {
			fs[i] = to
		}
	}
	return strings.Join(fs, " ")
}

// insertedQuestion asks for the credit of a customer inserted at run
// time, with its gold statement. Credit, a random float, is the one
// attribute no other customer shares, so an answer about the wrong
// customer can never match gold by coincidence. City or segment could:
// in the first cycle only, while the name has one row rather than one
// per cycle, and then outcome counts would depend on how many cycles a
// run completes.
func insertedQuestion(name string) *question {
	gold, err := sqlparse.Parse(fmt.Sprintf("SELECT credit FROM customer WHERE name = '%s'", name))
	if err != nil {
		panic(err) // generated names are plain letters
	}
	return &question{
		text:  fmt.Sprintf("what is the credit of the customer %s", name),
		gold:  gold,
		class: classInserted,
	}
}

// zipfS is the Zipf exponent of every skewed request stream. Below 1 the
// head of the distribution is heavy enough to make caching pay but no
// single question dominates a run.
const zipfS = 0.6

// zipfLayout lays out about n requests over a pool with Zipf(zipfS)
// frequencies: pool[k] is rank k+1 and appears round(n·w_k) times,
// w_k ∝ (k+1)^−zipfS, its copies spread evenly over the layout with a
// rank-dependent phase. The layout depends only on the pool size and n,
// not on the seed, so every seed gets the same pattern of repeats (and of
// answer-cache hits); the seed decides which question holds each rank.
func zipfLayout(poolLen, n int) []int {
	var sum float64
	for k := 1; k <= poolLen; k++ {
		sum += math.Pow(float64(k), -zipfS)
	}
	type slot struct {
		at float64
		k  int
	}
	var slots []slot
	for k := 0; k < poolLen; k++ {
		c := int(math.Round(float64(n) * math.Pow(float64(k+1), -zipfS) / sum))
		phase := math.Mod(float64(k)*0.6180339887498949, 1)
		for j := 0; j < c; j++ {
			slots = append(slots, slot{(float64(j) + phase) / float64(c), k})
		}
	}
	sort.Slice(slots, func(i, j int) bool {
		if slots[i].at != slots[j].at {
			return slots[i].at < slots[j].at
		}
		return slots[i].k < slots[j].k
	})
	out := make([]int, len(slots))
	for i, s := range slots {
		out[i] = s.k
	}
	return out
}

// vocabCycle builds the vocab-2k schedule: reads Zipf-ordered pool
// questions with an insert of a new customer before every writeEvery-th
// read, and an Ask naming that customer writeEvery/2 reads later. One
// read in misspellEvery sends a customer name misspelled (the first read
// naming a customer at or after every misspellEvery-th read), as a
// question of its own whose expected outcome stays the gold result: a
// typo belongs to one request, not to every repeat of a question, so
// each misspelled read is another draw for the fuzzy tier, and every
// seed gets the same number of them. Every cycle of a run replays the
// same operations: the same names are inserted again as new customer
// rows (fresh ids), which keeps each cycle's outcome counts identical
// while the value index stays as stale as it is after one cycle.
func vocabCycle(pool []*question, g *nameGen, reads, writeEvery, misspellEvery int, seed int64) []op {
	r := rand.New(rand.NewSource(seed ^ 0x6379636c))
	rm := rand.New(rand.NewSource(seed ^ 0x77696b69))
	var ops []op
	var name string
	due := 0 // misspellings owed
	for i, k := range zipfLayout(len(pool), reads) {
		switch i % writeEvery {
		case 0:
			name = g.next()
			ops = append(ops, op{insert: customerRow(r, 0, name)}) // id assigned at run time
		case writeEvery / 2:
			ops = append(ops, op{q: insertedQuestion(name)})
		}
		if i%misspellEvery == 0 {
			due++
		}
		q := pool[k]
		if v, col := goldValue(q.gold); col == "name" && due > 0 {
			if m := misspell(rm, v); m != v {
				q = &question{text: replaceWord(q.text, v, m), gold: q.gold, class: classMisspelled}
				due--
			}
		}
		ops = append(ops, op{q: q})
	}
	return ops
}

// poolSplit counts a pool's answerable and unanswerable questions.
func poolSplit(pool []*question) (answerable, unanswerableN int) {
	for _, q := range pool {
		if q.answerable() {
			answerable++
		} else {
			unanswerableN++
		}
	}
	return
}
