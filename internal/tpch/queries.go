package tpch

import (
	"fmt"

	"provabs/internal/engine"
	"provabs/internal/provenance"
)

// Q1SQL is TPC-H Q1 (pricing summary report), restricted to the engine's
// subset. The two discount-bearing sums are the provenance carriers; the
// paper reports 8 polynomials for Q1 — the four (returnflag, linestatus)
// groups times the two parameterized aggregates.
const Q1SQL = `
SELECT l_returnflag, l_linestatus,
       SUM(l_quantity) AS sum_qty,
       SUM(l_extendedprice) AS sum_base_price,
       SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
       SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,
       COUNT(*) AS count_order
FROM lineitem
WHERE l_shipdate <= DATE '1998-09-02'
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus`

// Q5SQL is TPC-H Q5 (local supplier volume) without the region/date filters,
// matching the paper's reported 25 polynomials — one revenue polynomial per
// nation.
const Q5SQL = `
SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
FROM customer, orders, lineitem, supplier, nation
WHERE c_custkey = o_custkey
  AND l_orderkey = o_orderkey
  AND l_suppkey = s_suppkey
  AND c_nationkey = s_nationkey
  AND s_nationkey = n_nationkey
GROUP BY n_name
ORDER BY n_name`

// Q10SQL is TPC-H Q10 (returned item reporting): revenue per customer over
// returned items in a quarter — very many small polynomials, the paper's
// worst case for compression gain.
const Q10SQL = `
SELECT c_custkey, c_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue, c_acctbal, n_name
FROM customer, orders, lineitem, nation
WHERE c_custkey = o_custkey
  AND l_orderkey = o_orderkey
  AND o_orderdate >= DATE '1993-10-01'
  AND o_orderdate < DATE '1994-01-01'
  AND l_returnflag = 'R'
  AND c_nationkey = n_nationkey
GROUP BY c_custkey, c_name, c_acctbal, n_name
ORDER BY c_custkey`

// QueryID names the paper's three benchmark queries.
type QueryID string

const (
	Q1  QueryID = "Q1"
	Q5  QueryID = "Q5"
	Q10 QueryID = "Q10"
)

// AllQueries lists the benchmark queries in the paper's reporting order
// (Q5, Q10, Q1 — the panel order of Figures 5–9).
var AllQueries = []QueryID{Q5, Q10, Q1}

// SQLOf returns the SQL text of a query.
func SQLOf(q QueryID) (string, error) {
	switch q {
	case Q1:
		return Q1SQL, nil
	case Q5:
		return Q5SQL, nil
	case Q10:
		return Q10SQL, nil
	}
	return "", fmt.Errorf("tpch: unknown query %q", q)
}

// Provenance executes the query and extracts its provenance set. For Q1 the
// set holds both discount-bearing aggregates per group; for Q5 and Q10 the
// revenue aggregate.
func (d *Dataset) Provenance(q QueryID) (*provenance.Set, error) {
	sql, err := SQLOf(q)
	if err != nil {
		return nil, err
	}
	res, err := d.Catalog.ExecSQL(sql)
	if err != nil {
		return nil, fmt.Errorf("tpch: executing %s: %w", q, err)
	}
	switch q {
	case Q1:
		disc, err := engine.GroupProvenance(d.Catalog.Vocab, res, "sum_disc_price")
		if err != nil {
			return nil, err
		}
		charge, err := engine.GroupProvenance(d.Catalog.Vocab, res, "sum_charge")
		if err != nil {
			return nil, err
		}
		out := provenance.NewSet(d.Catalog.Vocab)
		for i := range disc.Len() {
			out.Add(disc.Tags[i]+"|disc_price", disc.Poly(i))
		}
		for i := range charge.Len() {
			out.Add(charge.Tags[i]+"|charge", charge.Poly(i))
		}
		return out, nil
	default:
		return engine.GroupProvenance(d.Catalog.Vocab, res, "revenue")
	}
}

// Result executes the query and returns the raw relation (used by examples
// and the engine-level tests).
func (d *Dataset) Result(q QueryID) (*engine.Relation, error) {
	sql, err := SQLOf(q)
	if err != nil {
		return nil, err
	}
	return d.Catalog.ExecSQL(sql)
}
