package main

import (
	"testing"
	"time"

	"nlidb/internal/obs"
)

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []spanRec{
		{ID: 1, Name: "ask", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "interpret", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "interpret", Start: 40, End: 70}, // overlaps the first
		{ID: 4, Parent: 2, Name: "scan customer", Start: 20, End: 30},
	}
	got := map[string]float64{}
	for _, l := range selfTimes(spans) {
		got[l.Layer] = l.SelfMs * 1e6
	}
	// ask: 100 - |[10,70]| = 40; interpret: (40-10) + 30 = 60; scan: 10.
	for layer, want := range map[string]float64{"ask": 40, "interpret": 60, "scan": 10} {
		if got[layer] != want {
			t.Errorf("%s self = %v ns, want %v", layer, got[layer], want)
		}
	}
}

func TestImportTraceLaysOutProgramSpans(t *testing.T) {
	rec := newRecorder()
	ctx, qt := obs.NewQueryTrace(t.Context(), "q")
	_, a := obs.StartSpan(ctx, "tokenize")
	time.Sleep(time.Millisecond)
	a.End()
	_, b := obs.StartSpan(ctx, "attempt athena")
	time.Sleep(time.Millisecond)
	b.End()
	qt.Root.End()
	rec.importTrace(1, 0, qt.Root, rec.t0)
	if len(rec.spans) != 3 {
		t.Fatalf("%d spans imported, want 3", len(rec.spans))
	}
	root, tok, att := rec.spans[0], rec.spans[1], rec.spans[2]
	if tok.Parent != root.ID || att.Parent != root.ID || !tok.Placed {
		t.Errorf("bad parentage: %+v", rec.spans)
	}
	if att.Start != tok.End {
		t.Errorf("sequential children not laid back to back: %+v then %+v", tok, att)
	}
	if att.End > root.End {
		t.Errorf("child ends after its parent: %+v in %+v", att, root)
	}
}

func TestLayerNameFoldsShardsAndTables(t *testing.T) {
	for in, want := range map[string]string{"shard 1": "shard N", "scan customer": "scan", "attempt athena": "attempt athena"} {
		if got := layerName(in); got != want {
			t.Errorf("layerName(%q) = %q, want %q", in, got, want)
		}
	}
}
