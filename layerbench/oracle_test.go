package main

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"nlidb/internal/nlq"
	"nlidb/internal/resilient"
	"nlidb/internal/shard"
	"nlidb/internal/sqldata"
	"nlidb/internal/sqlparse"
)

func result(rows ...int64) *sqldata.Result {
	r := &sqldata.Result{Columns: []string{"x"}}
	for _, v := range rows {
		r.Rows = append(r.Rows, sqldata.Row{sqldata.NewInt(v)})
	}
	return r
}

func mustParse(t *testing.T, sql string) *sqlparse.SelectStmt {
	t.Helper()
	s, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestClassifyAsk(t *testing.T) {
	unordered := &question{text: "q", gold: mustParse(t, "SELECT x FROM t")}
	ordered := &question{text: "q", gold: mustParse(t, "SELECT x FROM t ORDER BY x")}
	offTopic := &question{text: "poem", class: classUnanswerable}
	exhausted := &resilient.ChainError{Question: "q", Attempts: []resilient.Attempt{{Engine: "athena", Err: nlq.ErrNoInterpretation}}}
	panicked := &resilient.ChainError{Question: "q", Attempts: []resilient.Attempt{{Engine: "parse", Err: &resilient.PanicError{Value: "boom"}}}}
	notDist := &shard.NotDistributableError{Reason: "HAVING"}

	for _, c := range []struct {
		name string
		q    *question
		res  *sqldata.Result
		err  error
		gold *sqldata.Result
		want outcome
	}{
		{"gold rows in any order", unordered, result(2, 1), nil, result(1, 2), correct},
		{"ORDER BY gold needs the order", ordered, result(2, 1), nil, result(1, 2), wrong},
		{"ORDER BY gold in order", ordered, result(1, 2), nil, result(1, 2), correct},
		{"different rows", unordered, result(1), nil, result(1, 2), wrong},
		{"expected refusal", offTopic, nil, exhausted, nil, correct},
		{"answering an unanswerable input", offTopic, result(1), nil, nil, wrong},
		{"refusing an answerable input", unordered, nil, exhausted, result(1), refused},
		{"not distributable is a typed refusal", unordered, nil, notDist, result(1), refused},
		{"panic inside the chain", unordered, nil, panicked, result(1), broken},
		{"panic is never an expected refusal", offTopic, nil, panicked, nil, broken},
		{"deadline", unordered, nil, fmt.Errorf("resilient: %w", context.DeadlineExceeded), result(1), missed},
		{"untyped error", unordered, nil, errors.New("boom"), result(1), broken},
	} {
		if got := classifyAsk(c.q, c.res, c.err, c.gold); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestClassifyHTTP(t *testing.T) {
	q := &question{text: "q", gold: mustParse(t, "SELECT x FROM t")}
	gold := [][]string{{"1"}, {"2"}}
	for _, c := range []struct {
		name      string
		rep       httpReply
		unsharded [][]string
		want      outcome
	}{
		{"matches gold and unsharded", httpReply{status: 200, rows: [][]string{{"2"}, {"1"}}}, gold, correct},
		{"matches gold, unsharded differs", httpReply{status: 200, rows: gold}, [][]string{{"1"}}, wrong},
		{"matches gold, unsharded refused", httpReply{status: 200, rows: gold}, nil, wrong},
		{"wrong rows", httpReply{status: 200, rows: [][]string{{"3"}}}, gold, wrong},
		{"typed refusal", httpReply{status: 422, errMsg: "shard: query not distributable"}, gold, refused},
		{"refusal hiding a panic", httpReply{status: 422, errMsg: "resilient: panic at interpret/athena: x"}, gold, broken},
		{"deadline", httpReply{status: 504}, gold, missed},
		{"shed", httpReply{status: 429}, gold, missed},
		{"server error", httpReply{status: 500}, gold, broken},
		{"transport error", httpReply{netErr: errors.New("connection reset")}, gold, broken},
	} {
		if got := classifyHTTP(q, c.rep, gold, c.unsharded); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestTallyFailedCountsEverythingButAnswers(t *testing.T) {
	var tl tally
	tl[correct], tl[wrong], tl[refused], tl[missed], tl[broken] = 10, 4, 3, 2, 1
	if tl.failed() != 6 || tl.total() != 20 {
		t.Errorf("failed %d total %d, want 6 and 20", tl.failed(), tl.total())
	}
}
