package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"provabs/internal/provenance"
	"provabs/internal/registry"
)

var updateWire = flag.Bool("update-wire", false, "rewrite testdata/wire_golden.json from the current encoder")

// wireGoldenPath holds the SHA-256 of every response of TestWireGolden,
// recorded from the encoding/json encoder the answer appender replaced.
const wireGoldenPath = "testdata/wire_golden.json"

// wireKinds are the five wire-selectable carriers ("" is the float default).
var wireKinds = []string{"", "bool", "count", "tropical", "minmax"}

// newWireServer serves two sessions built to stress the answer encoding:
// "esc" has natural coefficients (every carrier compiles it) and tags that
// need JSON escaping; "float" has fractional coefficients whose answers
// reach the float format switches, -0 and ±Inf.
func newWireServer(t testing.TB) *httptest.Server {
	t.Helper()
	reg := registry.New()
	vb := provenance.NewVocab()
	esc := provenance.NewSet(vb)
	for _, p := range []struct{ tag, poly string }{
		{`q"uote`, "2·a·b + 3·c"},
		{`back\slash`, "a + b"},
		{"<lt>&gt;", "4·a·c"},
		{"line\u2028sep\u2029", "b·c + 1"},
		{"ctl\x01\x1f\t\n", "5·a"},
		{"bad\xff\xfeutf8", "a^2"},
		{"é non-ascii ✓", "3·b + 2·c"},
		{"", "c"},
		{"zero", ""},
		{"plain", "7"},
	} {
		esc.Add(p.tag, provenance.MustParse(vb, p.poly))
	}
	if _, err := reg.Create("esc", esc, nil); err != nil {
		t.Fatal(err)
	}
	fb := provenance.NewVocab()
	fl := provenance.NewSet(fb)
	for _, p := range []struct{ tag, poly string }{
		{"x", "x"},
		{"y", "y"},
		{"z", "z"},
		{"mix", "0.1·x + 0.2·y"},
		{"product", "x·y"},
		{"difference", "x - x·y"},
		{"third", "0.3333333333333333·z + 1e-7"},
	} {
		fl.Add(p.tag, provenance.MustParse(fb, p.poly))
	}
	if _, err := reg.Create("float", fl, nil); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// wireCase is one request of the golden sweep.
type wireCase struct {
	name, path, body string
}

// wireCases enumerates the requests: one-shots, what-if streams (in-band
// errors, literal lines, a malformed terminal line), /query documents
// (errors, truncated, request errors) and /query streams, in every carrier.
func wireCases() []wireCase {
	var cs []wireCase
	add := func(name, path, body string) { cs = append(cs, wireCase{name, path, body}) }

	escAssigns := []string{
		`{"a":0,"b":1,"c":2}`,
		`{"a":1,"b":1,"c":1}`,
		`{"a":3,"b":0,"c":5}`,
		`{}`,
		`{"a":0.5}`,
		`{"nosuch\"<é\u2028":1}`,
	}
	for _, kind := range wireKinds {
		k := kind
		if k == "" {
			k = "float"
		}
		for i, a := range escAssigns {
			body := `{"assign":` + a + `}`
			if kind != "" {
				body = `{"semiring":"` + kind + `","assign":` + a + `}`
			}
			add(fmt.Sprintf("whatif/esc/%s/%d", k, i), "/v1/sessions/esc/whatif", body)
		}
		stream := strings.Join([]string{
			`{"assign":{"a":0,"b":1,"c":2}}`,
			`{"assign":{"nosuch\"<é":1}}`,
			`a=1, b=2`,
			`{"assign":{"a":0.5}}`,
			`{"assign":{}}`,
			`c=4`,
		}, "\n")
		add("stream/esc/"+k, "/v1/sessions/esc/whatif/stream?semiring="+kind, stream)
		add("stream/esc/"+k+"/malformed", "/v1/sessions/esc/whatif/stream?semiring="+kind,
			`{"assign":{"a":1}}`+"\n"+`{"assign":{"a":`)

		using := ""
		if kind != "" {
			using = " USING " + kind
		}
		for i, stmt := range []string{
			"a IN [0:2:1] CROSS (b,c) IN {(0,1),(2,3)}",
			"a IN [0:3:1] b IN [1:2:1] ORDER BY ans[0] DESC LIMIT 3",
			"c IN [0:4:1] ORDER BY ans['q\"uote'] ASC LIMIT 2",
			"a IN [0:1:0.5] SET c = 2",
			"a IN [0:1:0.0005]",
			"SAMPLE 5 a IN [0:3] SEED 7 SET b = 2",
		} {
			add(fmt.Sprintf("query/esc/%s/%d", k, i), "/v1/sessions/esc/query", queryBody(stmt+using))
			add(fmt.Sprintf("querystream/esc/%s/%d", k, i), "/v1/sessions/esc/query/stream", queryBody(stmt+using))
		}
	}

	floatAssigns := []string{
		`{"x":1e-7,"y":1e21,"z":-0}`,
		`{"x":1e300,"y":1e300}`,
		`{"x":-1e300,"y":1e300,"z":5e-324}`,
		`{"x":0.1,"y":3,"z":-2.5}`,
		`{"x":1e-6,"y":1e20,"z":123456789}`,
		`{"x":9.999999e-7,"y":9.999999999999999e20,"z":1.7976931348623157e308}`,
		`{}`,
	}
	for i, a := range floatAssigns {
		add(fmt.Sprintf("whatif/float/%d", i), "/v1/sessions/float/whatif", `{"assign":`+a+`}`)
		for _, kind := range wireKinds[1:] {
			add(fmt.Sprintf("whatif/float/%s/%d", kind, i), "/v1/sessions/float/whatif",
				`{"semiring":"`+kind+`","assign":`+a+`}`)
		}
	}
	var lines []string
	for _, a := range floatAssigns {
		lines = append(lines, `{"assign":`+a+`}`)
	}
	add("stream/float", "/v1/sessions/float/whatif/stream", strings.Join(lines, "\n"))
	for i, stmt := range []string{
		"CROSS (x,y,z) IN {(1e-7,1e21,-0),(1e300,1e300,1),(0.1,3,-2.5),(-1e300,1e300,5e-324)}",
		"x IN [0.1:0.5:0.1] SET y = 1e-9, z = 1e25",
		"x IN [0:1:0.25] ORDER BY ans[4] DESC LIMIT 2",
		"nosuch IN [0:1:0.5]",
		"x IN [0:1:",
	} {
		add(fmt.Sprintf("query/float/%d", i), "/v1/sessions/float/query", queryBody(stmt))
		add(fmt.Sprintf("querystream/float/%d", i), "/v1/sessions/float/query/stream", queryBody(stmt))
	}
	return cs
}

func queryBody(stmt string) string {
	b, err := json.Marshal(map[string]string{"query": stmt})
	if err != nil {
		panic(err)
	}
	return string(b)
}

// wireDigest posts one case and hashes what the client sees: the status,
// the content type and the body bytes.
func wireDigest(t *testing.T, base string, c wireCase) (string, []byte) {
	t.Helper()
	resp, err := http.Post(base+c.path, "application/json", strings.NewReader(c.body))
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s: reading body: %v", c.name, err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%d\n%s\n", resp.StatusCode, resp.Header.Get("Content-Type"))
	h.Write(body)
	return hex.EncodeToString(h.Sum(nil)), body
}

// TestWireGolden pins every answer endpoint's response bytes, in all five
// carriers, to digests recorded from the encoding/json encoder: the typed
// appender must reproduce its escaping, float formatting and ±Inf strings
// exactly. Rewrite the digests with -update-wire only for an intended wire
// change.
func TestWireGolden(t *testing.T) {
	ts := newWireServer(t)
	got := map[string]string{}
	for _, c := range wireCases() {
		if _, dup := got[c.name]; dup {
			t.Fatalf("duplicate case name %s", c.name)
		}
		digest, body := wireDigest(t, ts.URL, c)
		got[c.name] = digest
		if testing.Verbose() && len(body) < 4096 {
			t.Logf("%s: %s", c.name, body)
		}
	}
	if *updateWire {
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		var b strings.Builder
		b.WriteString("{\n")
		for i, name := range names {
			sep := ","
			if i == len(names)-1 {
				sep = ""
			}
			fmt.Fprintf(&b, "  %q: %q%s\n", name, got[name], sep)
		}
		b.WriteString("}\n")
		if err := os.MkdirAll(filepath.Dir(wireGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(wireGoldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(wireGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for name, d := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no recorded digest", name)
		} else if w != d {
			t.Errorf("%s: response digest %s, recorded %s", name, d, w)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: recorded but no longer requested", name)
		}
	}
}
