package engine

import (
	"strings"
	"testing"

	"provabs/internal/provenance"
)

func TestLexerEdgeCases(t *testing.T) {
	toks, err := lexSQL("SELECT a -- trailing comment\nFROM t")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokKind
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
	}
	// SELECT a FROM t EOF
	if len(toks) != 5 {
		t.Errorf("tokens = %d (%v)", len(toks), kinds)
	}
	if _, err := lexSQL("SELECT 'unterminated"); err == nil {
		t.Error("unterminated string accepted")
	}
	if _, err := lexSQL("SELECT @"); err == nil {
		t.Error("bad character accepted")
	}
	// Operators.
	toks, err = lexSQL("a <= b >= c <> d != e")
	if err != nil {
		t.Fatal(err)
	}
	ops := []string{}
	for _, tk := range toks {
		if tk.kind == tokSymbol {
			ops = append(ops, tk.text)
		}
	}
	if strings.Join(ops, " ") != "<= >= <> !=" {
		t.Errorf("ops = %v", ops)
	}
}

func TestFloatLiteralAndPrecedence(t *testing.T) {
	c := NewCatalog(nil)
	r := NewRelation("t", Schema{{"x", TFloat}})
	r.MustAppend(Float(10))
	c.AddTable(r)
	res, err := c.ExecSQL("SELECT x * 2 + 1.5 AS y, (x + 2) * 3 AS z, -x AS n FROM t")
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if row[0].F != 21.5 {
		t.Errorf("x*2+1.5 = %v", row[0].F)
	}
	if row[1].F != 36 {
		t.Errorf("(x+2)*3 = %v", row[1].F)
	}
	if row[2].F != -10 {
		t.Errorf("-x = %v", row[2].F)
	}
}

func TestDateArithmeticInPredicates(t *testing.T) {
	c := NewCatalog(nil)
	r := NewRelation("t", Schema{{"d", TDate}, {"x", TInt}})
	r.MustAppend(MustDate("1994-01-01"), Int(1))
	r.MustAppend(MustDate("1995-06-30"), Int(2))
	r.MustAppend(MustDate("1996-12-31"), Int(3))
	c.AddTable(r)
	res, err := c.ExecSQL("SELECT x FROM t WHERE d >= DATE '1995-01-01' AND d < DATE '1996-01-01'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 2 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestGroupByMultipleKeys(t *testing.T) {
	c := NewCatalog(nil)
	r := NewRelation("t", Schema{{"a", TString}, {"b", TString}, {"x", TInt}})
	for _, row := range []struct {
		a, b string
		x    int64
	}{{"u", "v", 1}, {"u", "v", 2}, {"u", "w", 4}, {"z", "v", 8}} {
		r.MustAppend(Str(row.a), Str(row.b), Int(row.x))
	}
	c.AddTable(r)
	res, err := c.ExecSQL("SELECT a, b, SUM(x) AS s FROM t GROUP BY a, b ORDER BY a, b")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	if res.Rows[0][2].F != 3 || res.Rows[1][2].F != 4 || res.Rows[2][2].F != 8 {
		t.Errorf("sums = %v %v %v", res.Rows[0][2], res.Rows[1][2], res.Rows[2][2])
	}
}

func TestProjectionExpressionsOverJoin(t *testing.T) {
	c := NewCatalog(nil)
	a := NewRelation("a", Schema{{"k", TInt}, {"x", TFloat}})
	b := NewRelation("b", Schema{{"k", TInt}, {"y", TFloat}})
	a.MustAppend(Int(1), Float(2))
	b.MustAppend(Int(1), Float(5))
	c.AddTable(a)
	c.AddTable(b)
	res, err := c.ExecSQL("SELECT a.x * b.y AS prod FROM a, b WHERE a.k = b.k")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].F != 10 {
		t.Errorf("prod = %v", res.Rows[0][0])
	}
}

func TestRelationStringRendering(t *testing.T) {
	r := NewRelation("t", Schema{{"name", TString}, {"n", TInt}})
	r.MustAppend(Str("alpha"), Int(1))
	r.MustAppend(Str("b"), Int(22))
	out := r.String(nil, 1)
	if !strings.Contains(out, "name") || !strings.Contains(out, "alpha") {
		t.Errorf("render:\n%s", out)
	}
	if !strings.Contains(out, "1 more rows") {
		t.Errorf("truncation note missing:\n%s", out)
	}
}

func TestAppendArityAndTypeErrors(t *testing.T) {
	r := NewRelation("t", Schema{{"x", TInt}})
	if err := r.Append(Int(1), Int(2)); err == nil {
		t.Error("arity mismatch accepted")
	}
	if err := r.Append(Str("no")); err == nil {
		t.Error("type mismatch accepted")
	}
	if err := r.Append(Int(3)); err != nil {
		t.Errorf("valid append rejected: %v", err)
	}
}

func TestParameterizeColumnErrors(t *testing.T) {
	vb := provenance.NewVocab()
	r := NewRelation("t", Schema{{"s", TString}, {"x", TFloat}})
	r.MustAppend(Str("a"), Float(1))
	if err := r.ParameterizeColumn("nope", nil); err == nil {
		t.Error("unknown column accepted")
	}
	if err := r.ParameterizeColumn("s", nil); err == nil {
		t.Error("string column accepted")
	}
	if err := r.ParameterizeColumn("x", func(int) []provenance.Var {
		return []provenance.Var{vb.Var("u")}
	}); err != nil {
		t.Errorf("valid parameterization rejected: %v", err)
	}
	if r.Rows[0][1].T != TSym {
		t.Error("cell not symbolic after parameterization")
	}
}

func TestCountStarAndAvgTypes(t *testing.T) {
	c := NewCatalog(nil)
	r := NewRelation("t", Schema{{"x", TInt}})
	r.MustAppend(Int(1))
	r.MustAppend(Int(2))
	c.AddTable(r)
	res, err := c.ExecSQL("SELECT COUNT(*) AS n, AVG(x) AS m FROM t GROUP BY x ORDER BY m")
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema[0].Type != TInt {
		t.Errorf("COUNT type = %s", res.Schema[0].Type)
	}
	if res.Schema[1].Type != TFloat {
		t.Errorf("AVG type = %s", res.Schema[1].Type)
	}
}

func TestDistinctWithoutAnnotations(t *testing.T) {
	c := NewCatalog(nil)
	r := NewRelation("t", Schema{{"x", TInt}})
	r.MustAppend(Int(1))
	r.MustAppend(Int(1))
	r.MustAppend(Int(2))
	c.AddTable(r)
	res, err := c.ExecSQL("SELECT DISTINCT x FROM t ORDER BY x")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("distinct rows = %d", len(res.Rows))
	}
}

func TestSymbolicAvg(t *testing.T) {
	vb := provenance.NewVocab()
	c := NewCatalog(vb)
	r := NewRelation("t", Schema{{"g", TInt}, {"x", TFloat}})
	r.MustAppend(Int(1), Float(2))
	r.MustAppend(Int(1), Float(4))
	if err := r.ParameterizeColumn("x", func(i int) []provenance.Var {
		return []provenance.Var{vb.Var("u")}
	}); err != nil {
		t.Fatal(err)
	}
	c.AddTable(r)
	res, err := c.ExecSQL("SELECT g, AVG(x) AS m FROM t GROUP BY g")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][1].T != TSym {
		t.Fatalf("AVG over symbolic not symbolic: %v", res.Rows[0][1].T)
	}
	u, _ := vb.Lookup("u")
	if got := res.Rows[0][1].Sym.Coeff(u); got != 3 {
		t.Errorf("AVG coefficient = %v, want 3", got)
	}
}

func TestTotalRows(t *testing.T) {
	c := NewCatalog(nil)
	a := NewRelation("a", Schema{{"x", TInt}})
	a.MustAppend(Int(1))
	b := NewRelation("b", Schema{{"y", TInt}})
	b.MustAppend(Int(1))
	b.MustAppend(Int(2))
	c.AddTable(a)
	c.AddTable(b)
	if got := c.TotalRows(); got != 3 {
		t.Errorf("TotalRows = %d", got)
	}
}

func TestGroupProvenanceConstantFallback(t *testing.T) {
	vb := provenance.NewVocab()
	c := NewCatalog(vb)
	r := NewRelation("t", Schema{{"g", TString}, {"x", TFloat}})
	r.MustAppend(Str("a"), Float(2.5))
	c.AddTable(r)
	res, err := c.ExecSQL("SELECT g, SUM(x) AS s FROM t GROUP BY g")
	if err != nil {
		t.Fatal(err)
	}
	set, err := GroupProvenance(vb, res, "s")
	if err != nil {
		t.Fatal(err)
	}
	if set.Poly(0).Coeff() != 2.5 {
		t.Errorf("constant polynomial = %v", set.Poly(0).Coeff())
	}
	if _, err := GroupProvenance(vb, res, "nope"); err == nil {
		t.Error("unknown column accepted")
	}
}
