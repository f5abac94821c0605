package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"

	"provabs/internal/abstree"
	"provabs/internal/hypo"
	"provabs/internal/provenance"
	"provabs/internal/semiring"
	"provabs/internal/session"
)

// The splice tests compare each answer encoding against the plain
// appender's: the same row with its baseline stripped, every answer
// formatted from scratch.

// plain strips a row's baseline.
func plain(row hypo.Row) hypo.Row {
	row.Base = nil
	return row
}

// spliceSet is eight tagged polynomials over four plans and two months,
// with natural coefficients so that every carrier compiles it; a scenario
// moving one plan leaves most answers at the baseline.
func spliceSet() *provenance.Set {
	vb := provenance.NewVocab()
	set := provenance.NewSet(vb)
	for i := range 8 {
		set.Add(fmt.Sprintf("zip %d", i), provenance.MustParse(vb,
			fmt.Sprintf("%d·p%d·m1 + %d·p%d·m2", i+1, i%4+1, i+2, (i+1)%4+1)))
	}
	return set
}

// spliceAdds is n add lines over spliceSet's variables (a new variable
// would outgrow the kernel's index and recompile it), tagged from first.
func spliceAdds(first, n int) string {
	var b strings.Builder
	for i := first; i < first+n; i++ {
		fmt.Fprintf(&b, `{"tag":"added %d","poly":"%d·p%d·m%d + 1"}`+"\n", i, i+2, i%4+1, i%2+1)
	}
	return b.String()
}

// spliceScenarios move a plan or two, or nothing, in values every carrier
// accepts.
var spliceScenarios = []map[string]float64{{}, {"p1": 0}, {"p2": 2, "m1": 3}, {"p4": 3}}

// spliceStatements are an unranked and a ranked ScenQL statement.
var spliceStatements = []string{
	"p1 IN [0:2:1] CROSS (m1) IN {(0),(3)}",
	"p2 IN [0:3:1] ORDER BY ans[1] DESC LIMIT 2",
}

func whatifBody(kind string, assign map[string]float64) string {
	b, err := json.Marshal(map[string]any{"semiring": kind, "assign": assign})
	if err != nil {
		panic(err)
	}
	return string(b)
}

// checkSpliced fails unless the row carries a baseline and encodes, as a
// one-shot body, to the plain appender's bytes; it returns those bytes.
func checkSpliced(t *testing.T, label string, row hypo.Row) []byte {
	t.Helper()
	if row.Base == nil {
		t.Fatalf("%s: row carries no baseline", label)
	}
	got, want := appendWhatIf(nil, row), appendWhatIf(nil, plain(row))
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: spliced\n%s\nplain\n%s", label, got, want)
	}
	return want
}

// checkSession checks every answer path of session name in every carrier
// — one-shots, what-if streams and ranked and unranked statements,
// through the Engine and through /v1 — against the plain appender.
func checkSession(t *testing.T, url, name string, e *session.Engine) {
	t.Helper()
	for _, k := range semiring.Kinds() {
		kind := string(k)
		var stream, wantStream []byte
		scs := make(chan *hypo.Scenario, len(spliceScenarios))
		for _, assign := range spliceScenarios {
			sc := &hypo.Scenario{Assign: assign}
			scs <- sc
			row, err := e.WhatIfRow(k, sc)
			if err != nil {
				t.Fatal(err)
			}
			want := checkSpliced(t, fmt.Sprintf("%s whatif %s %v", name, kind, assign), row)
			if status, got := postBody(t, url+"/v1/sessions/"+name+"/whatif", whatifBody(kind, assign)); status != http.StatusOK || got != string(want) {
				t.Fatalf("%s /whatif %s %v: status %d\n%s\nplain\n%s", name, kind, assign, status, got, want)
			}
			line, _ := json.Marshal(map[string]any{"assign": assign})
			stream = append(append(stream, line...), '\n')
		}
		close(scs)
		for res := range e.StreamIn(context.Background(), k, scs) {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			checkSpliced(t, fmt.Sprintf("%s stream %s %d", name, kind, res.Index), res.Row)
			res.Row = plain(res.Row)
			wantStream = appendStreamLine(wantStream, res)
		}
		if status, got := postBody(t, url+"/v1/sessions/"+name+"/whatif/stream?semiring="+kind, string(stream)); status != http.StatusOK || got != string(wantStream) {
			t.Fatalf("%s /whatif/stream %s: status %d\n%s\nplain\n%s", name, kind, status, got, wantStream)
		}
		for _, stmt := range spliceStatements {
			stmt += " USING " + kind
			res, err := e.QueryRows(context.Background(), stmt)
			if err != nil {
				t.Fatal(err)
			}
			for i, row := range res.Rows {
				checkSpliced(t, fmt.Sprintf("%s %q row %d", name, stmt, i), row.Row)
				res.Rows[i].Row = plain(row.Row)
			}
			want := appendQueryResult(nil, res)
			if status, got := postBody(t, url+"/v1/sessions/"+name+"/query", queryBody(stmt)); status != http.StatusOK || got != string(want) {
				t.Fatalf("%s /query %q: status %d\n%s\nplain\n%s", name, stmt, status, got, want)
			}
		}
	}
}

// baseLen is how many answers the float kernel's current baseline covers.
func baseLen(t *testing.T, e *session.Engine) int {
	t.Helper()
	row, err := e.WhatIfRow(semiring.KindFloat, &hypo.Scenario{})
	if err != nil {
		t.Fatal(err)
	}
	return row.Base.Row.Len()
}

// TestSpliceAfterAdds: Adds that stop short of doubling the kernel keep its
// baseline, so rows grow past it and their extra answers are formatted in
// full; Adds that double it replace the baseline. Every answer path keeps
// the plain appender's bytes throughout, on one compilation.
func TestSpliceAfterAdds(t *testing.T) {
	ts, reg := newRegistryServer(t)
	sess, err := reg.Create("s", spliceSet(), nil)
	if err != nil {
		t.Fatal(err)
	}
	e := sess.Engine()
	checkSession(t, ts.URL, "s", e)
	for _, step := range []struct{ adds, base int }{
		{4, 8},  // 12 answers: the 8-answer baseline stays
		{3, 8},  // 15
		{1, 16}, // 16: doubled, captured again
		{9, 16}, // 25
	} {
		added := e.Stats().Added
		if _, acks := postAddStream(t, ts.URL, "s", spliceAdds(int(added), step.adds)); len(acks) != step.adds {
			t.Fatalf("add acks = %+v", acks)
		}
		if got := baseLen(t, e); got != step.base {
			t.Fatalf("after %d adds: baseline covers %d answers, want %d", added+int64(step.adds), got, step.base)
		}
		checkSession(t, ts.URL, "s", e)
	}
	if st := e.Stats(); st.Compiles != 1 {
		t.Errorf("Compiles = %d, want 1", st.Compiles)
	}
}

// spliceForest abstracts the plans in pairs.
func spliceForest(t *testing.T) *abstree.Forest {
	t.Helper()
	forest, err := abstree.NewForest(abstree.MustParseTree("P(a(p1,p2),b(p3,p4))"))
	if err != nil {
		t.Fatal(err)
	}
	return forest
}

// TestSpliceAcrossCompress: rows evaluated before a Compress and encoded
// after it — and after Adds to the new active set — still splice from the
// baseline of the kernel that computed them.
func TestSpliceAcrossCompress(t *testing.T) {
	ts, reg := newRegistryServer(t)
	sess, err := reg.Create("s", spliceSet(), spliceForest(t))
	if err != nil {
		t.Fatal(err)
	}
	e := sess.Engine()
	var rows []hypo.Row
	for _, k := range semiring.Kinds() {
		for _, assign := range spliceScenarios {
			row, err := e.WhatIfRow(k, &hypo.Scenario{Assign: assign})
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, row)
		}
	}
	before := rows[0].Base
	if _, err := e.Compress(8); err != nil {
		t.Fatal(err)
	}
	if _, acks := postAddStream(t, ts.URL, "s", spliceAdds(0, 9)); len(acks) != 9 {
		t.Fatalf("add acks = %+v", acks)
	}
	for i, row := range rows {
		checkSpliced(t, fmt.Sprintf("row %d from before Compress", i), row)
	}
	if after, _ := e.WhatIfRow(semiring.KindFloat, &hypo.Scenario{}); after.Base == before {
		t.Fatal("the compressed kernel's rows carry the old kernel's baseline")
	}
	checkSession(t, ts.URL, "s", e)
}

// TestSpliceAfterImport: a session exported after Compress and Adds and
// imported under a new name answers every path byte for byte like the
// original and like the plain appender, on one compilation.
func TestSpliceAfterImport(t *testing.T) {
	ts, reg := newRegistryServer(t)
	orig, err := reg.Create("orig", spliceSet(), spliceForest(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := orig.Engine().Compress(8); err != nil {
		t.Fatal(err)
	}
	if _, acks := postAddStream(t, ts.URL, "orig", spliceAdds(0, 5)); len(acks) != 5 {
		t.Fatalf("add acks = %+v", acks)
	}
	checkSession(t, ts.URL, "orig", orig.Engine())
	resp, err := http.Post(ts.URL+"/v1/sessions/orig/export", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("export: status %d, %v", resp.StatusCode, err)
	}
	body, _ := json.Marshal(map[string]any{"name": "copy", "snapshot_b64": base64.StdEncoding.EncodeToString(snap)})
	if status, msg := postBody(t, ts.URL+"/v1/sessions", string(body)); status != http.StatusCreated {
		t.Fatalf("import: status %d: %s", status, msg)
	}
	imported, err := reg.Get("copy")
	if err != nil {
		t.Fatal(err)
	}
	checkSession(t, ts.URL, "copy", imported.Engine())
	for _, k := range semiring.Kinds() {
		for _, assign := range spliceScenarios {
			b := whatifBody(string(k), assign)
			_, want := postBody(t, ts.URL+"/v1/sessions/orig/whatif", b)
			if _, got := postBody(t, ts.URL+"/v1/sessions/copy/whatif", b); got != want {
				t.Fatalf("%s: imported\n%s\noriginal\n%s", b, got, want)
			}
		}
	}
	if st := imported.Engine().Stats(); st.Compiles != 1 {
		t.Errorf("imported Compiles = %d, want 1", st.Compiles)
	}
}

// TestSpliceConcurrentEncode races the lazy build of a fresh kernel's
// baseline encoding: goroutines encode rows of one kernel at once, and
// others send one-shots to a second fresh session, racing its baseline's
// capture too. CI runs it with -race -count=10.
func TestSpliceConcurrentEncode(t *testing.T) {
	ts, reg := newRegistryServer(t)
	sess, err := reg.Create("s", spliceSet(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create("fresh", spliceSet(), nil); err != nil {
		t.Fatal(err)
	}
	type shot struct {
		kind   semiring.Kind
		assign map[string]float64
		row    hypo.Row
		want   []byte
	}
	var shots []shot
	for _, k := range semiring.Kinds() {
		for i, assign := range spliceScenarios {
			row, err := sess.Engine().WhatIfRow(k, &hypo.Scenario{Assign: assign})
			if err != nil {
				t.Fatal(err)
			}
			if i > 0 && row.Base != shots[len(shots)-1].row.Base {
				t.Fatalf("%s rows of one kernel carry different baselines", k)
			}
			shots = append(shots, shot{k, assign, row, appendWhatIf(nil, plain(row))})
		}
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := range shots {
				s := shots[(i+g)%len(shots)]
				if got := appendWhatIf(nil, s.row); !bytes.Equal(got, s.want) {
					t.Errorf("%s %v: spliced\n%s\nplain\n%s", s.kind, s.assign, got, s.want)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := range shots {
				s := shots[(i+g)%len(shots)]
				resp, err := http.Post(ts.URL+"/v1/sessions/fresh/whatif", "application/json",
					strings.NewReader(whatifBody(string(s.kind), s.assign)))
				if err != nil {
					t.Error(err)
					return
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(got, s.want) {
					t.Errorf("fresh %s %v: status %d, %v\n%s\nplain\n%s", s.kind, s.assign, resp.StatusCode, err, got, s.want)
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzAnswerSplice checks the splice against the plain appender. Each
// input is a random baseline and a row of the same kernel, in each
// carrier's value type: per answer a control byte keeps the baseline's
// bits or changes them — the sign (so -0 against 0, -Inf against +Inf),
// to a NaN of another payload, to ±Inf, to the neighbouring bits. The row
// may run past the baseline, and its tags may need escaping, be absent,
// or (a kernel Add tagged after capture) outgrow the baseline's.
func FuzzAnswerSplice(f *testing.F) {
	answer := func(bits uint64, ctl byte) []byte {
		return append(binary.LittleEndian.AppendUint64(nil, bits), ctl)
	}
	seed := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	f.Add([]byte("zip 1"), seed(answer(math.Float64bits(1.5), 0), answer(math.Float64bits(2), 5), answer(7, 1)), uint8(0), uint8(0))
	f.Add([]byte(`q"<&>`), seed(answer(0, 2), answer(math.Float64bits(math.Copysign(0, -1)), 2), answer(0, 0)), uint8(2), uint8(0))
	f.Add([]byte("nan\u2028"), seed(answer(math.Float64bits(math.NaN()), 3), answer(0x7ff0000000000001, 0), answer(0xfff8000000000000, 3)), uint8(1), uint8(1))
	f.Add([]byte("inf"), seed(answer(math.Float64bits(math.Inf(1)), 2), answer(math.Float64bits(math.Inf(-1)), 4), answer(math.Float64bits(1e21), 4)), uint8(3), uint8(2))
	f.Add([]byte("\xff\x01"), seed(answer(1, 5), answer(math.Float64bits(1e-7), 0), answer(math.Float64bits(-1e300), 1), answer(3, 0)), uint8(5), uint8(2))
	f.Add([]byte{}, []byte{}, uint8(3), uint8(1))
	f.Fuzz(func(t *testing.T, tag, data []byte, extra, tagging uint8) {
		n := len(data) / 9
		m := n + int(extra%4)
		bits := make([]uint64, m)
		ctl := make([]byte, m)
		for j := range n {
			bits[j] = binary.LittleEndian.Uint64(data[9*j:])
			ctl[j] = data[9*j+8]
		}
		for j := n; j < m; j++ {
			bits[j], ctl[j] = uint64(j)*0x9e3779b97f4a7c15, byte(j)
		}
		var tags []string
		baseTags := 0
		switch tagging % 3 {
		case 0: // tagged
			for j := range m {
				tags = append(tags, fmt.Sprintf("%s %d", tag, j))
			}
			baseTags = n
		case 2: // captured short of tags, tagged by Adds since
			for j := range (m + 1) / 2 {
				tags = append(tags, string(tag)+strings.Repeat("+", j))
			}
			baseTags = min(len(tags), n) / 2
		}
		baseFloats, rowFloats := make([]float64, n), make([]float64, m)
		baseInts, rowInts := make([]int64, n), make([]int64, m)
		baseBools, rowBools := make([]bool, n), make([]bool, m)
		for j := range m {
			b := bits[j]
			x, k, v := math.Float64frombits(b), int64(b), b&1 == 1
			if j < n {
				baseFloats[j], baseInts[j], baseBools[j] = x, k, v
			}
			switch ctl[j] % 6 {
			case 2:
				x, k, v = -x, -k, !v
			case 3:
				x, k = math.Float64frombits(0x7ff8000000000000|b>>13), k^1
			case 4:
				x, k, v = math.Inf(int(ctl[j])&2-1), k+1, !v
			case 5:
				x, k = math.Float64frombits(b^1), k-1
			}
			rowFloats[j], rowInts[j], rowBools[j] = x, k, v
		}
		for _, c := range []struct{ base, row hypo.Row }{
			{hypo.RowOf(nil, baseFloats, nil), hypo.RowOf(tags, rowFloats, nil)},
			{hypo.RowOf(nil, baseInts, nil), hypo.RowOf(tags, rowInts, nil)},
			{hypo.RowOf(nil, baseBools, nil), hypo.RowOf(tags, rowBools, nil)},
		} {
			var base *hypo.Baseline
			switch vals := c.base.Values.(type) {
			case []float64:
				base = hypo.NewBaseline(tags[:min(len(tags), baseTags)], vals)
			case []int64:
				base = hypo.NewBaseline(tags[:min(len(tags), baseTags)], vals)
			case []bool:
				base = hypo.NewBaseline(tags[:min(len(tags), baseTags)], vals)
			}
			row := c.row
			row.Base = base
			if got, want := appendAnswers(nil, row), appendAnswers(nil, c.row); !bytes.Equal(got, want) {
				t.Fatalf("baseline %v:\nspliced %s\n  plain %s", base.Row, got, want)
			}
		}
	})
}
