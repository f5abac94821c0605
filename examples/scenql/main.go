// ScenQL tour: scenario families as single statements — grid sweeps,
// tuple products, pushed-down top-k ranking, semiring selection and
// EXPLAIN — against the paper's running telco example (Example 2).
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"os"

	"provabs"
)

func main() {
	vb := provabs.NewVocab()
	set := provabs.NewSet(vb)
	set.Add("zip 10001", provabs.MustParse(vb,
		"220.8·p1·m1 + 240·p1·m3 + 127.4·f1·m1 + 114.45·f1·m3 + 75.9·y1·m1 + 72.5·y1·m3 + 42·v·m1 + 24.2·v·m3"))
	set.Add("zip 10002", provabs.MustParse(vb,
		"90·p1·m1 + 85·f1·m3 + 30·v·m1"))
	eng, err := provabs.Open(set, nil)
	if err != nil {
		log.Fatal(err)
	}

	// One statement, 33 scenarios: how does revenue respond as plan A's
	// multiplier sweeps from shutdown to +60%, under each fiber/yearly
	// regime? CROSS pairs the two variables jointly (3 tuples, not 9).
	fmt.Println("== sweep × tuple product ==")
	res, err := eng.Query(
		"p1 IN [0:1.6:0.2] CROSS (f1,y1) IN {(1,1),(0,1),(2,0)} LIMIT 5")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d of %d scenarios (truncated=%v):\n", len(res.Rows), res.Scenarios, res.Truncated)
	for _, row := range res.Rows {
		fmt.Printf("  #%d p1=%.1f f1=%.0f y1=%.0f → %.2f\n",
			row.Index, row.Assign["p1"], row.Assign["f1"], row.Assign["y1"],
			row.Answers[0].Value)
	}

	// Ranking pushed into the engine: a streaming bounded heap keeps the
	// top 3 while the sweep runs, so a million-point grid never
	// materializes. ans['zip 10001'] addresses the answer by tag.
	fmt.Println("== pushed-down top-k ==")
	res, err = eng.Query(
		"p1 IN [0:2:0.05] v IN [0:2:0.25] ORDER BY ans['zip 10001'] DESC LIMIT 3")
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.Rows {
		fmt.Printf("  #%d p1=%.2f v=%.2f → %.2f\n",
			row.Index, row.Assign["p1"], row.Assign["v"], row.Answers[0].Value)
	}

	// Deletion propagation in the same language: USING bool asks which
	// answers survive each deletion pattern (0 = delete, 1 = keep). The
	// boolean carrier reads provenance strictly as N[X], so it runs on a
	// natural-coefficient set (the paper set's fractional revenues would
	// answer per-row errors here).
	fmt.Println("== USING bool: deletion propagation ==")
	nvb := provabs.NewVocab()
	nset := provabs.NewSet(nvb)
	nset.Add("q1", provabs.MustParse(nvb, "2·p1·m1 + 3·f1·m1"))
	nset.Add("q2", provabs.MustParse(nvb, "p1·m3"))
	neng, err := provabs.Open(nset, nil)
	if err != nil {
		log.Fatal(err)
	}
	res, err = neng.Query("CROSS (p1,f1) IN {(0,1),(1,0),(0,0)} USING bool")
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.Rows {
		fmt.Printf("  delete p1=%v f1=%v: q1 survives=%v q2 survives=%v\n",
			row.Assign["p1"] == 0, row.Assign["f1"] == 0,
			row.Answers[0].Value, row.Answers[1].Value)
	}

	// EXPLAIN returns the plan instead of running it: the generator tree,
	// scenario classes and the engine's routing decisions (delta vs
	// chained vs full, with the live cost model once the session has
	// history).
	fmt.Println("== EXPLAIN ==")
	res, err = eng.Query("EXPLAIN p1 IN [0:2:0.05] v IN [0:2:0.25] ORDER BY ans[0] DESC LIMIT 3")
	if err != nil {
		log.Fatal(err)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res.Explain); err != nil {
		log.Fatal(err)
	}

	// The same sweep as a stream: rows arrive as they are evaluated
	// (chained deltas between adjacent scenarios), bounded memory.
	fmt.Println("== streaming ==")
	info, rows, err := eng.QueryStream(context.Background(), "m1 IN [0.5:1.5:0.5] SET m3=1")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("streaming %d scenarios in the %s semiring:\n", info.Scenarios, info.Semiring)
	for row := range rows {
		fmt.Printf("  m1=%.1f → %.2f\n", row.Assign["m1"], row.Row.Values.([]float64)[0])
	}
	if err := info.Err(); err != nil {
		log.Fatal(err)
	}
}
