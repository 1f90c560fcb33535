// Command layerbench is the repository's layered NL-serving benchmark.
// One run measures one workload for --seconds and prints, as the last
// line of standard output, one JSON object with the keys correct,
// attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones; with --trace 1 the run repeats the workload with
// tracing on and reports per-layer metrics instead. Everything printed
// before that line is the human-readable report: the envelope, every
// metric by name with its unit, the outcome counts and the oracle's
// verdict. See README.md in this directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// An untraced run sets its workload up at least minSetups times, and
// more while less than setupBudget has been spent, up to maxSetups;
// setup_s is the median. Only the last set-up is measured.
const (
	minSetups   = 5
	maxSetups   = 25
	setupBudget = time.Second
)

// moreSetups reports whether set-up number done+1 is due.
func moreSetups(done int, spent []float64) bool {
	var total float64
	for _, s := range spent {
		total += s
	}
	return done < maxSetups && (done < minSetups || total < setupBudget.Seconds())
}

// config is one run's arguments.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	nlidb    string // the cmd/nlidb binary serve-remote forks
	out      string // directory for span dumps and child partition files
}

// metric is one reported metric's name and unit, as in BENCHMARK.json.
type metric struct{ name, unit string }

var endToEnd = []metric{
	{"setup_s", "s"}, {"setup_heap_mb", "MB"},
	{"latency_p50_ms", "ms"}, {"latency_p90_ms", "ms"}, {"latency_p99_ms", "ms"},
	{"throughput_qps", "1/s"}, {"goodput_qps", "1/s"},
	{"exec_accuracy", "ratio"},
}

var perLayer = []metric{
	{"failed_ratio", "ratio"},
	{"nlp.tokenize_us", "us"}, {"nlq.analyze_us", "us"},
	{"invindex.lookup_us", "us"}, {"invindex.keys", "count"}, {"invindex.build_ms", "ms"},
	{"athena.interpret_us", "us"}, {"parsenl.interpret_us", "us"},
	{"patternnl.interpret_us", "us"}, {"keywordnl.interpret_us", "us"},
	{"resilient.interpret_calls_per_q", "count"}, {"resilient.useful_interpret_ratio", "ratio"},
	{"resilient.overhead_us", "us"},
	{"sqlparse.parse_us", "us"}, {"plan.prepare_us", "us"}, {"plan.execute_us", "us"},
	{"plan.rows_scanned", "count"},
	{"qcache.hit_ratio", "ratio"}, {"sqldata.insert_us", "us"}, {"write_p50_ms", "ms"},
	{"admission.queue_wait_ms_p50", "ms"}, {"admission.queue_wait_ms_p99", "ms"},
	{"admission.shed_ratio", "ratio"},
	{"shard.legs_per_q", "count"}, {"shard.leg_ms_p50", "ms"}, {"shard.leg_ms_p99", "ms"},
	{"shard.hedges_per_q", "count"}, {"shard.retries_per_q", "count"},
	{"shard.refused_ratio", "ratio"},
	{"procnode.wire_ms_p50", "ms"}, {"procnode.child_interpret_ms", "ms"},
	{"shard.coordinator_interpret_ms", "ms"},
	{"runtime.alloc_kb_per_q", "KB"}, {"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_ms", "ms"},
}

// report is one run's findings.
type report struct {
	e2e      map[string]float64
	layers   map[string]float64
	scale    map[string]any
	tail     tail
	outcomes tally // Asks only
	all      tally // every operation, over all phases
	notes    []string
	spans    *recorder
}

func (r *report) absorb(t tally) {
	for i, n := range t {
		r.all[i] += n
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(config) (*report, error){
	"sales-cold":   func(c config) (*report, error) { return runInproc(salesColdSpec, c) },
	"vocab-2k":     func(c config) (*report, error) { return runInproc(vocabSpec, c) },
	"serve-remote": runRemote,
}

func main() {
	var c config
	var secs int
	var trace int
	flag.StringVar(&c.workload, "workload", "", "workload: sales-cold, vocab-2k or serve-remote")
	flag.Int64Var(&c.seed, "seed", 1, "input seed")
	flag.IntVar(&secs, "seconds", 10, "measured seconds per phase")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced phase and reports per-layer metrics")
	flag.StringVar(&c.nlidb, "nlidb", "", "cmd/nlidb binary (serve-remote)")
	flag.StringVar(&c.out, "out", ".bench_build", "directory for span dumps and child partition files")
	flag.Parse()
	c.seconds = time.Duration(secs) * time.Second
	c.trace = trace == 1
	if err := run(c, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "layerbench:", err)
		os.Exit(1)
	}
}

func run(c config, w io.Writer) error {
	wl, ok := workloads[c.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", c.workload)
	}
	if c.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(c.out, 0o755); err != nil {
		return err
	}
	rp, err := wl(c)
	if err != nil {
		return err
	}
	env := envelope(c, rp)
	ej, err := json.Marshal(env)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "envelope %s\n", ej)
	for _, n := range rp.notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintf(w, "outcomes (asks): %s\n", tallyString(rp.outcomes))
	if rp.tail.N > 0 {
		fmt.Fprintf(w, "latency tail: p%.1f = %.3f ms is the highest percentile with ≥%d of %d samples beyond it\n",
			100*rp.tail.Q, rp.tail.Value, tailSupport, rp.tail.N)
	}
	list, values := endToEnd, rp.e2e
	if c.trace {
		list, values = perLayer, rp.layers
	}
	metrics := map[string]any{}
	for _, m := range list {
		v := values[m.name]
		fmt.Fprintf(w, "metric %-34s %14.4f %s\n", m.name, v, m.unit)
		metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	if rp.spans != nil {
		path := filepath.Join(c.out, fmt.Sprintf("spans-%s-seed%d.jsonl", c.workload, c.seed))
		if err := rp.spans.write(path); err != nil {
			return err
		}
		fmt.Fprintf(w, "spans: %d written to %s\n", len(rp.spans.spans), path)
		printSelfTimes(w, selfTimes(rp.spans.spans))
	}
	ok = rp.all[broken] == 0
	if ok {
		fmt.Fprintln(w, "oracle: ok (no panic, untyped error or transport error)")
	} else {
		fmt.Fprintf(w, "oracle: FLAGGED: %d operations ended in a panic, an untyped error or a transport error\n", rp.all[broken])
	}
	final, err := json.Marshal(map[string]any{
		"correct":   ok,
		"attempted": rp.all.total(),
		"failed":    rp.all[broken],
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", final)
	return nil
}

func tallyString(t tally) string {
	parts := make([]string, len(t))
	for i, n := range t {
		parts[i] = fmt.Sprintf("%s=%d", outcome(i), n)
	}
	return strings.Join(parts, " ")
}

// envelope identifies what was measured and where.
func envelope(c config, rp *report) map[string]any {
	return map[string]any{
		"workload":   c.workload,
		"seed":       c.seed,
		"seconds":    c.seconds.Seconds(),
		"trace":      c.trace,
		"commit":     commit(),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"numcpu":     runtime.NumCPU(),
		"scale":      rp.scale,
	}
}

// commit names the measured source: the git commit, or "unknown"
// outside a git checkout.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
