package main

// The correctness oracle: gold results computed outside the timed
// region, and the classifier that turns each operation's answer or error
// into one outcome. Answers are compared as internal/eval compares them:
// row order matters only when the gold statement has ORDER BY.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"nlidb/internal/resilient"
	"nlidb/internal/shard"
	"nlidb/internal/sqldata"
	"nlidb/internal/sqlexec"
	"nlidb/internal/sqlparse"
)

// outcome is what one operation came to.
type outcome int

const (
	// correct: the gold result for an answerable input, a typed refusal
	// for an unanswerable one, or a write that returned without error.
	correct outcome = iota
	// wrong: an answer whose rows differ from gold (or, on serve-remote,
	// from the unsharded gateway's answer), or any answer to an
	// unanswerable input.
	wrong
	// refused: a typed refusal of an answerable input.
	refused
	// missed: the deadline expired or the request was shed.
	missed
	// broken: a panic, an untyped error or a transport error. Any broken
	// operation marks the whole run incorrect.
	broken
)

var outcomeNames = [...]string{"correct", "wrong", "refused", "missed", "broken"}

func (o outcome) String() string { return outcomeNames[o] }

// tally counts outcomes.
type tally [len(outcomeNames)]int64

func (t *tally) total() int64 {
	var n int64
	for _, c := range t {
		n += c
	}
	return n
}

// failed counts what failed_ratio reports: every outcome other than the
// expected one or a wrong answer.
func (t *tally) failed() int64 { return t[refused] + t[missed] + t[broken] }

// goldResult executes a gold statement over db.
func goldResult(db *sqldata.Database, stmt *sqlparse.SelectStmt) (*sqldata.Result, error) {
	res, err := sqlexec.New(db).RunContext(context.Background(), stmt, sqlexec.DefaultBudget())
	if err != nil {
		return nil, fmt.Errorf("gold %q: %w", stmt.String(), err)
	}
	return res, nil
}

// sameResult compares an answer with gold the way internal/eval does.
func sameResult(got, gold *sqldata.Result, goldStmt *sqlparse.SelectStmt) bool {
	if got == nil || gold == nil {
		return false
	}
	if len(goldStmt.OrderBy) > 0 {
		return got.EqualOrdered(gold)
	}
	return got.EqualUnordered(gold)
}

// classifyAsk is the outcome of one in-process Ask.
func classifyAsk(q *question, res *sqldata.Result, err error, gold *sqldata.Result) outcome {
	if err != nil {
		return classifyErr(q, err)
	}
	if !q.answerable() || !sameResult(res, gold, q.gold) {
		return wrong
	}
	return correct
}

// classifyErr maps an Ask error to an outcome. Typed refusals are an
// exhausted fallback chain and a not-distributable statement; a panic
// recovered anywhere in the chain's attempts is broken, never a refusal.
func classifyErr(q *question, err error) outcome {
	var pe *resilient.PanicError
	var ce *resilient.ChainError
	switch {
	case errors.As(err, &pe):
		return broken
	case errors.As(err, &ce):
		for _, a := range ce.Attempts {
			if errors.As(a.Err, &pe) {
				return broken
			}
		}
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, resilient.ErrShed):
		return missed
	case errors.Is(err, resilient.ErrExhausted), errors.Is(err, shard.ErrNotDistributable):
		if q.answerable() {
			return refused
		}
		return correct
	}
	return broken
}

// httpReply is what the serve-remote client saw for one request.
type httpReply struct {
	status int
	rows   [][]string
	errMsg string
	netErr error
}

// classifyHTTP is the outcome of one serve-remote request. An answer is
// correct only if it equals gold and also equals the unsharded gateway's
// answer to the same question (unsharded is nil when that gateway
// refused).
func classifyHTTP(q *question, r httpReply, gold, unsharded [][]string) outcome {
	switch {
	case r.netErr != nil:
		return broken
	case r.status == 200:
		ordered := q.gold != nil && len(q.gold.OrderBy) > 0
		if !q.answerable() || !sameRows(r.rows, gold, ordered) || !sameRows(r.rows, unsharded, ordered) {
			return wrong
		}
		return correct
	case strings.Contains(r.errMsg, "resilient: panic"):
		return broken
	case r.status == 422:
		if q.answerable() {
			return refused
		}
		return correct
	case r.status == 504, r.status == 429, r.status == 503:
		return missed
	}
	return broken
}

// rowStrings renders a result the way the HTTP API does.
func rowStrings(res *sqldata.Result) [][]string {
	if res == nil {
		return nil
	}
	out := make([][]string, len(res.Rows))
	for i, row := range res.Rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = v.String()
		}
		out[i] = cells
	}
	return out
}

// sameRows compares rendered rows; nil never matches (a refusal has no
// rows to agree with).
func sameRows(a, b [][]string, ordered bool) bool {
	if a == nil || b == nil || len(a) != len(b) {
		return false
	}
	ka, kb := rowKeys(a), rowKeys(b)
	if !ordered {
		sort.Strings(ka)
		sort.Strings(kb)
	}
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

func rowKeys(rows [][]string) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = strings.Join(r, "\x1f")
	}
	return out
}
