package main

// Tracing for the --trace 1 run. The benchmark adds nothing to the
// program: it times calls into public functions (its own spans), wraps
// each interpreter it hands to resilient.New, and imports the span trees
// the program already returns on Answer.Trace. Spans are kept in memory
// and written out when the run ends; self time per layer is computed from
// them.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nlidb/internal/nlq"
	"nlidb/internal/obs"
)

// spanRec is one recorded span. Times are nanoseconds since the run
// started. Placed marks a span imported from the program's trace export,
// which carries durations but no start times: its children are laid back
// to back from the parent's start, except the legs under a "scatter"
// span, which run in parallel and all start with it.
type spanRec struct {
	Req    int64  `json:"req"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Placed bool   `json:"placed,omitempty"`
}

// recorder keeps spans in memory. A nil recorder records nothing, so
// untraced runs share the code path.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []spanRec
	ids   atomic.Int64
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// span records one finished span and returns its ID (0 when r is nil).
func (r *recorder) span(req, parent int64, name string, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	id := r.ids.Add(1)
	r.mu.Lock()
	r.spans = append(r.spans, spanRec{Req: req, ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0))})
	r.mu.Unlock()
	return id
}

// request allocates a request ID.
func (r *recorder) request() int64 {
	if r == nil {
		return 0
	}
	return r.ids.Add(1)
}

// importTrace records a program span tree under parent, starting at
// start.
func (r *recorder) importTrace(req, parent int64, root *obs.Span, start time.Time) {
	if r == nil || root == nil {
		return
	}
	var place func(d *obs.SpanData, parent int64, at int64)
	place = func(d *obs.SpanData, parent int64, at int64) {
		id := r.ids.Add(1)
		r.mu.Lock()
		r.spans = append(r.spans, spanRec{Req: req, ID: id, Parent: parent, Name: d.Name,
			Start: at, End: at + d.DurNS, Placed: true})
		r.mu.Unlock()
		off := at
		for _, c := range d.Children {
			place(c, id, off)
			if d.Name != "scatter" {
				off += c.DurNS
			}
		}
	}
	place(root.Export(), parent, int64(start.Sub(r.t0)))
}

// write dumps the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerSelf is one layer's share of the recorded time.
type layerSelf struct {
	Layer  string
	Spans  int
	SelfMs float64
}

var digits = regexp.MustCompile(`[0-9]+`)

// layerName folds span names that differ only by a shard number or a
// table name into one layer.
func layerName(name string) string {
	name = digits.ReplaceAllString(name, "N")
	if i := strings.IndexByte(name, ' '); i > 0 && (strings.HasPrefix(name, "scan ") || strings.HasPrefix(name, "join ")) {
		return name[:i]
	}
	return name
}

// selfTimes computes each span's self time — its duration minus the part
// of it its children cover — and sums it per layer, largest first.
func selfTimes(spans []spanRec) []layerSelf {
	kids := map[int64][]spanRec{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	acc := map[string]*layerSelf{}
	for _, s := range spans {
		self := s.End - s.Start - covered(s, kids[s.ID])
		l := acc[layerName(s.Name)]
		if l == nil {
			l = &layerSelf{Layer: layerName(s.Name)}
			acc[l.Layer] = l
		}
		l.Spans++
		l.SelfMs += float64(self) / 1e6
	}
	out := make([]layerSelf, 0, len(acc))
	for _, l := range acc {
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfMs != out[j].SelfMs {
			return out[i].SelfMs > out[j].SelfMs
		}
		return out[i].Layer < out[j].Layer
	})
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(p spanRec, children []spanRec) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, p.Start), min(c.End, p.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = -1 << 62
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// timedInterpreter wraps one engine of the fallback chain, counting and
// timing every Interpret call the gateway makes.
type timedInterpreter struct {
	inner nlq.Interpreter
	calls *atomic.Int64
	us    samples
}

func (t *timedInterpreter) Name() string { return t.inner.Name() }

func (t *timedInterpreter) Interpret(question string) ([]nlq.Interpretation, error) {
	t0 := time.Now()
	ins, err := t.inner.Interpret(question)
	t.us.add(float64(time.Since(t0).Nanoseconds()) / 1e3)
	t.calls.Add(1)
	return ins, err
}

// wrapChain wraps every engine, sharing one call counter.
func wrapChain(chain []nlq.Interpreter, calls *atomic.Int64) ([]nlq.Interpreter, []*timedInterpreter) {
	out := make([]nlq.Interpreter, len(chain))
	timed := make([]*timedInterpreter, len(chain))
	for i, e := range chain {
		timed[i] = &timedInterpreter{inner: e, calls: calls}
		out[i] = timed[i]
	}
	return out, timed
}

// printSelfTimes writes the per-layer self-time table.
func printSelfTimes(w io.Writer, layers []layerSelf) {
	var total float64
	for _, l := range layers {
		total += l.SelfMs
	}
	fmt.Fprintf(w, "layer self time (%d layers, %.1f ms recorded):\n", len(layers), total)
	for _, l := range layers {
		fmt.Fprintf(w, "  %-22s %8d spans %10.2f ms %6.2f%%\n", l.Layer, l.Spans, l.SelfMs, 100*l.SelfMs/total)
	}
}
