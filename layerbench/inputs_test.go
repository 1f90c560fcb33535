package main

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"nlidb/internal/benchdata"
	"nlidb/internal/sqlparse"
)

// render writes every input a workload would feed the program for seed.
func render(t *testing.T, seed int64) string {
	t.Helper()
	var sb strings.Builder
	d := benchdata.Sales(dataSeed)
	for _, q := range salesPool(d, 20, seed) {
		fmt.Fprintf(&sb, "sales %s|%v|%s\n", q.text, q.gold, q.class)
	}
	v, g, err := vocabSpec.data(seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range v.DB.Tables() {
		for _, row := range tb.Rows {
			fmt.Fprintf(&sb, "row %s %v\n", tb.Schema.Name, row)
		}
	}
	pool, cycle := vocabSpec.build(v, g, seed)
	for _, q := range pool {
		fmt.Fprintf(&sb, "pool %s|%v|%s\n", q.text, q.gold, q.class)
	}
	for _, o := range cycle {
		if o.insert != nil {
			fmt.Fprintf(&sb, "insert %v\n", o.insert)
		} else {
			fmt.Fprintf(&sb, "ask %s\n", o.q.text)
		}
	}
	return sb.String()
}

func TestInputsAreSeeded(t *testing.T) {
	a, b, c := render(t, 7), render(t, 7), render(t, 8)
	if a != b {
		t.Error("the same seed gave different inputs")
	}
	if a == c {
		t.Error("different seeds gave identical inputs")
	}
}

func TestVocabCycleAsksAboutInsertsAfterThem(t *testing.T) {
	d, g, err := vocabSpec.data(3)
	if err != nil {
		t.Fatal(err)
	}
	if n := d.DB.Table("customer").Len(); n < vocabGrowth {
		t.Fatalf("customer table has %d rows, want ≥ %d", n, vocabGrowth)
	}
	pool, cycle := vocabSpec.build(d, g, 3)
	if len(pool) != vocabPool {
		t.Errorf("pool has %d questions, want %d", len(pool), vocabPool)
	}
	inserted := map[string]bool{}
	inserts, misspelled, reads := 0, 0, 0
	for _, o := range cycle {
		switch {
		case o.q != nil && o.q.class != classInserted:
			reads++
			if o.q.class == classMisspelled {
				misspelled++
			}
		case o.insert != nil:
			inserts++
			inserted[o.insert[1].String()] = true
		case o.q.class == classInserted:
			name := o.q.text[strings.LastIndex(o.q.text, " ")+1:]
			if !inserted[name] {
				t.Errorf("%q is asked before its customer is inserted", o.q.text)
			}
		}
	}
	if want := (reads + vocabWriteEvery - 1) / vocabWriteEvery; inserts != want {
		t.Errorf("%d inserts per cycle, want %d", inserts, want)
	}
	if misspelled == 0 {
		t.Error("no misspelled questions in the cycle")
	}
}

// Misspellings are a fixed share of the reads, so the fuzzy tier gets
// the same number of draws from every seed; only which names are
// misspelled, and how, differs.
func TestVocabMisspelledShareIsFixed(t *testing.T) {
	count := func(seed int64) (misspelled int, texts string) {
		d, g, err := vocabSpec.data(seed)
		if err != nil {
			t.Fatal(err)
		}
		_, cycle := vocabSpec.build(d, g, seed)
		for _, o := range cycle {
			if o.q != nil && o.q.class == classMisspelled {
				misspelled++
				texts += o.q.text + "\n"
			}
		}
		return misspelled, texts
	}
	n1, t1 := count(1)
	for seed := int64(2); seed <= 4; seed++ {
		if n, tx := count(seed); n != n1 || tx == t1 {
			t.Errorf("seed %d: %d misspelled reads (seed 1: %d), same texts: %v", seed, n, n1, tx == t1)
		}
	}
}

func TestSalesPoolIsStratified(t *testing.T) {
	pool := salesPool(benchdata.Sales(1), 40, 1)
	ans, un := poolSplit(pool)
	if un != ans/unanswerableEvery {
		t.Errorf("split %d/%d, want one unanswerable per %d answerable", ans, un, unanswerableEvery)
	}
	perClass := map[string]int{}
	for _, q := range pool {
		perClass[q.class]++
	}
	for _, c := range []string{"simple", "aggregation", "join", "nested"} {
		if perClass[c] != 40 {
			t.Errorf("class %s has %d questions, want 40", c, perClass[c])
		}
	}
}

func TestSpiderTemplateMasksValuesAndNumbers(t *testing.T) {
	for _, c := range []struct{ text, sql, want string }{
		{"what is the city of the customer Anna Weber", "SELECT city FROM customer WHERE name = 'Anna Weber'", "what is the city of the customer V"},
		{"list customers with city Berlin and credit below 1200", "SELECT name FROM customer WHERE city = 'Berlin' AND credit < 1200", "list customers with city V and credit below N"},
		{"customers with more than 3 orders", "SELECT name FROM customer", "customers with more than N orders"},
	} {
		gold, err := sqlparse.Parse(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		if got := spiderTemplate(&question{text: c.text, gold: gold}); got != c.want {
			t.Errorf("spiderTemplate(%q) = %q, want %q", c.text, got, c.want)
		}
	}
}

func TestMisspellKeepsLettersAndLength(t *testing.T) {
	for _, s := range []string{"kravolin", "brisseth", "aabbcc"} {
		m := misspell(rand.New(rand.NewSource(1)), s)
		if len(m) != len(s) || m == s {
			t.Errorf("misspell(%q) = %q", s, m)
		}
	}
}
