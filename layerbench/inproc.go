package main

// The two in-process workloads, sales-cold and vocab-2k: a
// resilient.Gateway configured as cmd/nlidb configures it by default
// (athena → parse, pattern, keyword; plan cache; 5s timeout), driven by
// a closed loop of two clients.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nlidb/internal/benchdata"
	"nlidb/internal/invindex"
	"nlidb/internal/lexicon"
	"nlidb/internal/nlp"
	"nlidb/internal/nlq"
	"nlidb/internal/obs"
	"nlidb/internal/qcache"
	"nlidb/internal/resilient"
	"nlidb/internal/sqldata"
)

const (
	// goodLatency is the latency limit goodput counts answers within.
	goodLatency = 250 * time.Millisecond
	// salesPerClass is the number of Spider-style questions per
	// complexity class in the sales-cold pool.
	salesPerClass = 200
	// vocabGrowth is the number of generated customers vocab-2k adds.
	vocabGrowth = 2000
	// vocabPool is the size of the vocab-2k read pool.
	vocabPool = 90
	// vocabReads is the number of reads in the repeated vocab-2k
	// schedule, with one insert and one misspelled customer name per
	// vocabWriteEvery and vocabMisspell reads.
	vocabReads      = 450
	vocabWriteEvery = 30
	vocabMisspell   = 30
)

// cliGateway builds the gateway cmd/nlidb builds with its default flags.
// cacheOn adds the default 1024-entry answer cache.
func cliGateway(db *sqldata.Database, chain []nlq.Interpreter, cacheOn, traceOn bool, reg *obs.Registry) (*resilient.Gateway, *qcache.Cache) {
	var cache *qcache.Cache
	if cacheOn {
		cache = qcache.New(qcache.Config{MaxEntries: 1024, Metrics: reg})
	}
	gw := resilient.New(db, chain, resilient.Config{
		Timeout:       5 * time.Second,
		Metrics:       reg,
		SlowLog:       obs.NewSlowLog(250*time.Millisecond, 128),
		Traces:        obs.NewTraceStore(obs.TraceStoreConfig{SlowThreshold: 250 * time.Millisecond, SampleRate: 0.01, MaxSpans: 16384}),
		Cache:         cache,
		PlanCache:     qcache.New(qcache.Config{MaxEntries: 256}),
		BreakerJitter: resilient.DefaultBreakerJitter(0),
		NoTrace:       !traceOn,
	})
	return gw, cache
}

// inproc is one set-up in-process workload.
type inproc struct {
	db    *sqldata.Database
	gw    *resilient.Gateway
	cache *qcache.Cache
	cycle []op
	pool  []*question
	calls atomic.Int64
	timed []*timedInterpreter
	ix    *invindex.Index // the benchmark's own index, for lookup probes
	d     *benchdata.Domain
	g     *nameGen
}

// inprocSpec describes how to build one in-process workload.
type inprocSpec struct {
	name    string
	cacheOn bool
	clients int // closed-loop clients
	// data builds the database; build makes the pool and the schedule
	// over it.
	data  func(seed int64) (*benchdata.Domain, *nameGen, error)
	build func(d *benchdata.Domain, g *nameGen, seed int64) (pool []*question, cycle []op)
	// probeEvery: the traced run probes analysis and lookup on every
	// probeEvery-th Ask.
	probeEvery int
}

// sales-cold runs one client: with two, both vCPUs stay saturated and its
// millisecond latencies follow the shared machine's drift more closely
// (p50 spread 0.24 over ten seeds, against 0.16 with one client, which
// leaves a vCPU for the collector).
var salesColdSpec = inprocSpec{
	name:    "sales-cold",
	clients: 1,
	data:    func(int64) (*benchdata.Domain, *nameGen, error) { return benchdata.Sales(dataSeed), nil, nil },
	build: func(d *benchdata.Domain, _ *nameGen, seed int64) ([]*question, []op) {
		pool := salesPool(d, salesPerClass, seed)
		cycle := make([]op, len(pool))
		for i, q := range pool {
			cycle[i] = op{q: q}
		}
		return pool, cycle
	},
	probeEvery: 8,
}

// vocab-2k runs two clients, so inserts contend with in-flight reads for
// the benchmark's write lock.
var vocabSpec = inprocSpec{
	name:    "vocab-2k",
	cacheOn: true,
	clients: 2,
	data: func(seed int64) (*benchdata.Domain, *nameGen, error) {
		d := benchdata.Sales(dataSeed)
		g, err := growCustomers(d, vocabGrowth, seed)
		return d, g, err
	},
	build: func(d *benchdata.Domain, g *nameGen, seed int64) ([]*question, []op) {
		pool := wikiPool(d, vocabPool, seed)
		return pool, vocabCycle(pool, g, vocabReads, vocabWriteEvery, vocabMisspell, seed)
	},
	probeEvery: 16,
}

// setup builds what serves the workload: data, chain (each engine builds
// its own value index) and gateway. This is what setup_s times; the
// question pool and schedule are made afterwards (see inputs).
func (s inprocSpec) setup(seed int64, traceOn bool, reg *obs.Registry) (*inproc, error) {
	d, g, err := s.data(seed)
	if err != nil {
		return nil, err
	}
	w := &inproc{db: d.DB, d: d, g: g}
	chain, err := resilient.ChainByNames(d.DB, lexicon.New(), resilient.DefaultChainNames)
	if err != nil {
		return nil, err
	}
	if traceOn {
		chain, w.timed = wrapChain(chain, &w.calls)
	}
	w.gw, w.cache = cliGateway(d.DB, chain, s.cacheOn, traceOn, reg)
	return w, nil
}

// inputs makes the question pool and the schedule over the set-up data.
func (w *inproc) inputs(s inprocSpec, seed int64) {
	w.pool, w.cycle = s.build(w.d, w.g, seed)
}

// askRes is what one Ask returned.
type askRes struct {
	res    *sqldata.Result
	err    error
	cached bool
	rows   int // rows scanned by the execution
}

// phase is the outcome of one measured closed-loop phase.
type phase struct {
	recs    []record
	elapsed time.Duration
	asks    map[int]askRes
	inserts []time.Duration // insert call time alone
	alloc   uint64          // bytes allocated during the phase
	gcPause time.Duration
	layers  *layerStats // traced phases only
}

// measure drives the workload for d with the spec's clients.
func (s inprocSpec) measure(w *inproc, d time.Duration, rec *recorder) *phase {
	ph := &phase{asks: map[int]askRes{}}
	if rec != nil {
		ph.layers = newLayerStats()
	}
	cust := w.db.Table("customer")
	seq := newSequencer(w.cycle)
	var mu sync.Mutex
	var probes atomic.Int64
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	ph.recs, ph.elapsed = closedLoop(s.clients, seq, d, func(pos int, o op) func() {
		if o.insert != nil {
			// Only one insert runs at a time and no Ask is in flight
			// (the sequencer's ordering is the benchmark's write lock),
			// so reading the next id here is safe.
			row := append(sqldata.Row(nil), o.insert...)
			row[0] = sqldata.NewInt(int64(cust.Len()) + 1)
			t0 := time.Now()
			err := cust.Insert(row)
			took := time.Since(t0)
			mu.Lock()
			ph.inserts = append(ph.inserts, took)
			ph.asks[pos] = askRes{err: err}
			mu.Unlock()
			return nil
		}
		req := rec.request()
		t0 := time.Now()
		ans, err := w.gw.Ask(context.Background(), o.q.text)
		t1 := time.Now()
		r := askRes{err: err}
		var trace *obs.QueryTrace
		if ans != nil {
			r.res, r.cached, r.rows = ans.Result, ans.Cached, ans.Usage.Rows
			trace = ans.Trace
		}
		var ce *resilient.ChainError
		if errors.As(err, &ce) {
			trace = ce.Trace
		}
		mu.Lock()
		ph.asks[pos] = r
		mu.Unlock()
		if rec == nil {
			return nil
		}
		return func() {
			id := rec.span(req, 0, "ask", t0, t1)
			if trace != nil {
				rec.importTrace(req, id, trace.Root, t0)
				ph.layers.gateway(trace.Root.Export(), t1.Sub(t0), r.cached, err == nil, r.rows)
			}
			if n := probes.Add(1); n%int64(s.probeEvery) == 0 {
				ph.layers.probe(rec, req, w.ix, o.q.text)
			}
		}
	})
	runtime.ReadMemStats(&ms1)
	ph.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	ph.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	return ph
}

// judge replays the run's inserts on a freshly built copy of the data,
// computes each Ask's gold result at the data version it saw (memoised
// per question and version) and classifies every operation. It runs
// after the timed region.
func (s inprocSpec) judge(w *inproc, ph *phase, seed int64) (*verdict, error) {
	d, _, err := s.data(seed)
	if err != nil {
		return nil, err
	}
	vd := &verdict{outcome: map[int]outcome{}, byClass: map[string]*classStats{}}
	cust := d.DB.Table("customer")
	seq := newSequencer(w.cycle)
	var insertsInCycle []sqldata.Row
	for _, o := range w.cycle {
		if o.insert != nil {
			insertsInCycle = append(insertsInCycle, o.insert)
		}
	}
	recs := append([]record(nil), ph.recs...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].pos < recs[j].pos })
	applied := 0
	type key struct {
		q *question
		v int
	}
	gold := map[key]*sqldata.Result{}
	for _, rc := range recs {
		o := w.cycle[rc.pos%len(w.cycle)]
		r := ph.asks[rc.pos]
		if o.insert != nil {
			oc := correct
			if r.err != nil {
				oc = broken
			}
			vd.outcome[rc.pos] = oc
			vd.all[oc]++
			continue
		}
		v := seq.writesAt(rc.pos)
		for ; applied < v; applied++ {
			row := append(sqldata.Row(nil), insertsInCycle[applied%len(insertsInCycle)]...)
			row[0] = sqldata.NewInt(int64(cust.Len()) + 1)
			if err := cust.Insert(row); err != nil {
				return nil, err
			}
		}
		var g *sqldata.Result
		if o.q.answerable() {
			k := key{o.q, v}
			if g = gold[k]; g == nil {
				if g, err = goldResult(d.DB, o.q.gold); err != nil {
					return nil, err
				}
				gold[k] = g
			}
		}
		oc := classifyAsk(o.q, r.res, r.err, g)
		c := vd.byClass[o.q.class]
		if c == nil {
			c = &classStats{}
			vd.byClass[o.q.class] = c
		}
		c.t[oc]++
		c.ms = append(c.ms, ms(rc.latency))
		vd.outcome[rc.pos] = oc
		vd.asks[oc]++
		vd.all[oc]++
	}
	return vd, nil
}

// verdict is the oracle's finding on one phase.
type verdict struct {
	asks, all tally
	outcome   map[int]outcome // by schedule position
	byClass   map[string]*classStats
}

// cycleTimings turns a closed-loop phase into its timing metrics.
// Latency percentiles are taken over every read of every cycle.
// Throughput and goodput are the median over cycles of reads (correct
// within goodLatency, for goodput) per second of cycle duration; a cycle
// lasts from the end of the previous cycle's last operation to the end
// of its own.
func cycleTimings(w *inproc, ph *phase, vd *verdict) (lat []float64, throughput, goodput float64, cycles int) {
	n := len(w.cycle)
	ends := map[int]time.Duration{}
	reads := map[int]float64{}
	good := map[int]float64{}
	for _, r := range ph.recs {
		k := r.pos / n
		if r.end > ends[k] {
			ends[k] = r.end
		}
		if r.write {
			continue
		}
		lat = append(lat, ms(r.latency))
		reads[k]++
		if vd.outcome[r.pos] == correct && r.latency <= goodLatency {
			good[k]++
		}
	}
	sort.Float64s(lat)
	cycles = len(ends)
	var tp, gp []float64
	var prev time.Duration
	for k := 0; k < cycles; k++ {
		d := (ends[k] - prev).Seconds()
		prev = ends[k]
		tp = append(tp, reads[k]/d)
		gp = append(gp, good[k]/d)
	}
	return lat, median(tp), median(gp), cycles
}

// classStats is one question class's outcomes and latencies in a run.
type classStats struct {
	t  tally
	ms []float64
}

// runInproc runs one in-process workload: timed set-ups (see moreSetups;
// the last one is measured), then the closed loop, then the oracle. With
// traceOn it runs an untraced phase and then a traced one on a fresh
// set-up, and reports per-layer metrics.
func runInproc(s inprocSpec, c config) (*report, error) {
	rp := &report{}
	var w *inproc
	var setupS, buildMs []float64
	for i := 0; i == 0 || !c.trace && moreSetups(i, setupS); i++ {
		w = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if w, err = s.setup(c.seed, false, obs.NewRegistry()); err != nil {
			return nil, fmt.Errorf("%s setup: %w", s.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	heap := liveHeapMB()
	t0 := time.Now()
	w.ix = invindex.Build(w.db, lexicon.New())
	buildMs = append(buildMs, float64(time.Since(t0).Microseconds())/1e3)
	w.inputs(s, c.seed)
	rp.scale = dataScale(w.db, w.ix, w.pool)

	ph := s.measure(w, c.seconds, nil)
	vd, err := s.judge(w, ph, c.seed)
	if err != nil {
		return nil, fmt.Errorf("%s oracle: %w", s.name, err)
	}
	asks := vd.asks
	classes := make([]string, 0, len(vd.byClass))
	for k := range vd.byClass {
		classes = append(classes, k)
	}
	sort.Strings(classes)
	for _, k := range classes {
		cs := vd.byClass[k]
		rp.note("class %-13s %5d asks, p50 %8.3f ms: %s", k, len(cs.ms), median(cs.ms), tallyString(cs.t))
	}
	rp.absorb(vd.all)
	lat, throughput, goodput, cycles := cycleTimings(w, ph, vd)
	p50 := quantile(lat, 0.5)
	rp.e2e = map[string]float64{
		"setup_s":        median(setupS),
		"setup_heap_mb":  heap,
		"latency_p50_ms": p50,
		"latency_p90_ms": quantile(lat, 0.9),
		"latency_p99_ms": quantile(lat, 0.99),
		"throughput_qps": throughput,
		"goodput_qps":    goodput,
		"exec_accuracy":  ratio(asks[correct], asks.total()),
	}
	rp.tail = supportedTail(lat)
	rp.outcomes = asks
	rp.note("elapsed %.2fs over %d operations (%d cycles of %d); latency percentiles over %d reads", ph.elapsed.Seconds(), len(ph.recs), cycles, len(w.cycle), len(lat))
	if !c.trace {
		return rp, nil
	}

	// Traced phase: a fresh set-up with program spans on, wrapped
	// interpreters and analysis/lookup probes.
	reg := obs.NewRegistry()
	tw, err := s.setup(c.seed, true, reg)
	if err != nil {
		return nil, fmt.Errorf("%s traced setup: %w", s.name, err)
	}
	tw.inputs(s, c.seed)
	t0 = time.Now()
	tw.ix = invindex.Build(tw.db, lexicon.New())
	buildMs = append(buildMs, float64(time.Since(t0).Microseconds())/1e3)
	rec := newRecorder()
	tph := s.measure(tw, c.seconds, rec)
	tvd, err := s.judge(tw, tph, c.seed)
	if err != nil {
		return nil, fmt.Errorf("%s traced oracle: %w", s.name, err)
	}
	rp.absorb(tvd.all)
	tlat, _, _, _ := cycleTimings(tw, tph, tvd)
	L := tph.layers
	nAsks := tvd.asks.total()
	m := map[string]float64{
		"failed_ratio":                     ratio(asks.failed(), asks.total()),
		"nlp.tokenize_us":                  L.med("tokenize"),
		"nlq.analyze_us":                   L.med("analyze"),
		"invindex.lookup_us":               L.med("lookup"),
		"invindex.keys":                    float64(tw.ix.Size()),
		"invindex.build_ms":                median(buildMs),
		"resilient.interpret_calls_per_q":  ratio(tw.calls.Load(), nAsks),
		"resilient.useful_interpret_ratio": ratio(L.answered.Load(), tw.calls.Load()),
		"resilient.overhead_us":            L.med("overhead"),
		"sqlparse.parse_us":                L.med("parse"),
		"plan.prepare_us":                  L.med("plan"),
		"plan.execute_us":                  L.med("execute"),
		"plan.rows_scanned":                ratio(L.rows.Load(), L.answered.Load()),
		"qcache.hit_ratio":                 cacheHitRatio(tw.cache),
		"trace.overhead_ms":                quantile(tlat, 0.5) - p50,
		"runtime.alloc_kb_per_q":           float64(ph.alloc) / 1024 / float64(asks.total()),
		"runtime.gc_pause_ms":              float64(ph.gcPause.Microseconds()) / 1e3,
	}
	for _, t := range tw.timed {
		m[engineMetric[t.Name()]] = median(t.us.sorted())
	}
	if len(ph.inserts) > 0 {
		var us, wl []float64
		for _, d := range tph.inserts {
			us = append(us, float64(d.Nanoseconds())/1e3)
		}
		for _, r := range tph.recs {
			if r.write {
				wl = append(wl, ms(r.latency))
			}
		}
		m["sqldata.insert_us"] = median(us)
		m["write_p50_ms"] = median(wl)
	}
	rp.layers = m
	rp.spans = rec
	rp.note("traced p50 %.3f ms vs untraced %.3f ms", quantile(tlat, 0.5), p50)
	rp.note("lookup profile: %s", lookupProfile(L))
	return rp, nil
}

// engineMetric maps a chain engine's name to its per-layer metric.
var engineMetric = map[string]string{
	"athena":  "athena.interpret_us",
	"parse":   "parsenl.interpret_us",
	"pattern": "patternnl.interpret_us",
	"keyword": "keywordnl.interpret_us",
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func cacheHitRatio(c *qcache.Cache) float64 {
	if c == nil {
		return 0
	}
	st := c.Stats()
	return ratio(st.Hits, st.Hits+st.Misses)
}

// lookupProfile estimates the share of an uncached Ask spent in value
// lookup as the product of two measured shares: interpretation's share
// of uncached Ask time (the program's interpret spans over the Asks that
// contain them) and span matching's share of one analysis (the probes,
// paired per question: nlq.MatchSpans time over nlq.Analyze time).
func lookupProfile(L *layerStats) string {
	interp := L.sum("interpret") / 1e3
	asks := L.sum("ask_uncached")
	inAnalysis := L.med("lookup_share")
	if asks == 0 || inAnalysis == 0 {
		return "no uncached asks were probed"
	}
	return fmt.Sprintf("interpretation is %.0f%% of uncached Ask time, span matching %.0f%% of an analysis: lookup ≈ %.0f%% of an uncached Ask (ROADMAP: ≈87%% on 150-row Sales)",
		100*interp/asks, 100*inAnalysis, 100*interp/asks*inAnalysis)
}

// layerStats gathers per-layer samples in a traced phase.
type layerStats struct {
	mu       sync.Mutex
	s        map[string][]float64
	answered atomic.Int64 // uncached successful Asks
	uncached atomic.Int64
	rows     atomic.Int64
}

func newLayerStats() *layerStats { return &layerStats{s: map[string][]float64{}} }

func (L *layerStats) add(name string, v float64) {
	L.mu.Lock()
	L.s[name] = append(L.s[name], v)
	L.mu.Unlock()
}

func (L *layerStats) med(name string) float64 {
	L.mu.Lock()
	defer L.mu.Unlock()
	return median(L.s[name])
}

func (L *layerStats) sum(name string) float64 {
	L.mu.Lock()
	defer L.mu.Unlock()
	var sum float64
	for _, x := range L.s[name] {
		sum += x
	}
	return sum
}

// gateway reads one gateway trace: stage spans and the overhead left
// outside them. Cache hits carry no stages and are skipped.
func (L *layerStats) gateway(root *obs.SpanData, took time.Duration, cached, ok bool, rows int) {
	if cached {
		return
	}
	L.uncached.Add(1)
	if ok {
		L.answered.Add(1)
		L.rows.Add(int64(rows))
	}
	L.add("ask_uncached", ms(took))
	var stages int64
	var walk func(d *obs.SpanData)
	walk = func(d *obs.SpanData) {
		switch d.Name {
		case "tokenize", "interpret", "parse", "plan", "execute":
			stages += d.DurNS
			L.add(d.Name, float64(d.DurNS)/1e3)
			return
		}
		for _, c := range d.Children {
			walk(c)
		}
	}
	walk(root)
	L.add("overhead", float64(root.DurNS-stages)/1e3)
}

// probe times one nlq.Analyze of the question, one invindex.Lookup per
// word and one nlq.MatchSpans over its tokens, against the benchmark's
// own index, as spans of request req.
func (L *layerStats) probe(rec *recorder, req int64, ix *invindex.Index, q string) {
	opts := invindex.DefaultOptions()
	t0 := time.Now()
	nlq.Analyze(q, ix, opts)
	t1 := time.Now()
	rec.span(req, 0, "probe nlq.analyze", t0, t1)
	L.add("analyze", float64(t1.Sub(t0).Nanoseconds())/1e3)
	for _, tok := range nlp.Words(nlp.Tokenize(q)) {
		a := time.Now()
		ix.Lookup(tok.Text, opts)
		b := time.Now()
		rec.span(req, 0, "probe invindex.lookup", a, b)
		L.add("lookup", float64(b.Sub(a).Nanoseconds())/1e3)
	}
	// Span matching is every lookup one analysis makes (up to three per
	// token position, for one- to three-word phrases).
	toks := nlp.Tag(nlp.Tokenize(q))
	a := time.Now()
	nlq.MatchSpans(toks, ix, opts)
	total := time.Since(a)
	rec.span(req, 0, "probe nlq.matchspans", a, a.Add(total))
	L.add("lookup_share", float64(total)/float64(t1.Sub(t0)))
}

// liveHeapMB is the live heap after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// dataScale describes a workload's data and pool for the envelope.
func dataScale(db *sqldata.Database, ix *invindex.Index, pool []*question) map[string]any {
	rows, distinct := 0, 0
	for _, t := range db.Tables() {
		rows += t.Len()
		for _, c := range t.Schema.Columns {
			if c.Type == sqldata.TypeText {
				vs, _ := t.DistinctText(c.Name) // a text column of the table's own schema
				distinct += len(vs)
			}
		}
	}
	ans, unans := poolSplit(pool)
	return map[string]any{
		"rows": rows, "distinct_text_values": distinct, "invindex_keys": ix.Size(),
		"pool": len(pool), "answerable": ans, "unanswerable": unans,
	}
}
