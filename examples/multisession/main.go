// Multi-session tour: one process hosting several provenance sessions
// through the registry, each with its own abstraction and cached
// compilation, plus the v1 HTTP API served over them — create, compress,
// what-if, per-session and aggregate stats, delete.
package main

import (
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"

	"provabs"
	"provabs/internal/server"
)

// buildSet returns a small telco-style revenue polynomial; scale lets the
// two tenants differ so their answers are distinguishable.
func buildSet(tag string, scale float64) *provabs.Set {
	vb := provabs.NewVocab()
	set := provabs.NewSet(vb)
	set.Add(tag, provabs.MustParse(vb, fmt.Sprintf(
		"%g·p1·m1 + %g·p1·m3 + %g·f1·m1 + %g·f1·m3",
		220.8*scale, 240*scale, 127.4*scale, 114.45*scale)))
	return set
}

func main() {
	// 1. A registry owns named sessions: one per tenant / provenance file.
	reg := provabs.OpenRegistry()
	forest, err := provabs.NewForest(provabs.MustParseTree("Year(q1(m1,m3))"))
	if err != nil {
		log.Fatal(err)
	}
	north, err := reg.Create("north", buildSet("zip 10001", 1), forest)
	if err != nil {
		log.Fatal(err)
	}
	south, err := reg.Create("south", buildSet("zip 73301", 2), forest)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Sessions are independent: compress one, leave the other exact.
	if _, err := north.Engine().Compress(2); err != nil {
		log.Fatal(err)
	}
	for _, sess := range reg.List() {
		st := sess.Engine().Stats()
		fmt.Printf("session %-5s compressed=%-5v monomials=%d\n",
			sess.Name(), st.Compressed, st.Monomials)
	}

	// 3. Interleaved what-ifs reuse each session's own cached compilation.
	// north answers over the quarter meta-variable; south, uncompressed,
	// sees the equivalent group-uniform per-month scenario.
	scenarios := map[string]*provabs.Scenario{
		"north": provabs.NewScenario().Set("q1", 0.8),
		"south": provabs.NewScenario().Set("m1", 0.8).Set("m3", 0.8),
	}
	for i := 0; i < 3; i++ {
		for _, sess := range reg.List() {
			answers, err := sess.Engine().WhatIf(scenarios[sess.Name()])
			if err != nil {
				log.Fatal(err)
			}
			if i == 0 {
				fmt.Printf("%s: scenario -> %.2f\n", sess.Name(), answers[0].Value)
			}
		}
	}
	agg := reg.Stats()
	fmt.Printf("aggregate: %d sessions, %d scenarios, %d compiles (one per session)\n",
		agg.Sessions, agg.Totals.Scenarios, agg.Totals.Compiles)

	// 4. The same registry over HTTP: the versioned v1 API. (A real
	// deployment runs `provabs serve -load north=... -load south=...`;
	// httptest keeps the example self-contained.)
	ts := httptest.NewServer(server.New(reg).Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/sessions/south/whatif", "application/json",
		strings.NewReader(`{"assign":{"m1":0.8,"m3":0.8}}`))
	if err != nil {
		log.Fatal(err)
	}
	body := make([]byte, 256)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	fmt.Printf("POST /v1/sessions/south/whatif -> %s", body[:n])

	// 5. Lifecycle: deleting a session frees it and ends its streams.
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/sessions/south", nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
	fmt.Printf("after DELETE: %d session(s) left\n", reg.Len())
	_ = south
}
