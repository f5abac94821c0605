package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sort"

	"provabs/internal/durable"
	"provabs/internal/hypo"
	"provabs/internal/provenance"
	"provabs/internal/semiring"
	"provabs/internal/session"
	"provabs/internal/telco"
)

const (
	// uniformTolerance is TestQuickUniformExactness's bound: a VVS-uniform
	// scenario answered by the compressed session must match the
	// uncompressed set within 1e-6 relative.
	uniformTolerance = 1e-6
	// recompressTolerance bounds how far an independent compression of the
	// same inputs may answer from the live session. Compression sums the
	// coefficients of merged monomials in map order
	// (provenance.Polynomial.Substitute), so two compressions of one set
	// can differ in the last bits; those differences are counted and
	// reported, and anything beyond this bound fails the run.
	recompressTolerance = 1e-12
)

// references are the in-process Engines the gates compare against.
type references struct {
	// mirrors are restored from each session's own export after the
	// window: the same compressed state, so every answer that crossed the
	// gateway must match them bit for bit.
	mirrors map[*liveSession]*session.Engine
	// fresh are opened and compressed independently from the same inputs
	// (and fed the same acked adds).
	fresh map[*liveSession]*session.Engine

	lastBitDiffs int // fresh answers that differ from the live ones in the last bits only
	maxRelErr    float64
}

// openFresh opens and compresses a session from its inputs alone.
func openFresh(s *liveSession, forest []string) (*session.Engine, error) {
	set, err := provenance.Decode(bytes.NewReader(s.in.encoded))
	if err != nil {
		return nil, err
	}
	eng, err := openForest(set, forest)
	if err != nil {
		return nil, err
	}
	if _, err := eng.Compress(s.in.bound, session.WithStrategy(session.StrategyGreedy)); err != nil {
		return nil, err
	}
	return eng, nil
}

// restore opens an exported snapshot in process.
func restore(raw []byte) (*session.Engine, error) {
	st, _, err := durable.DecodeSnapshot(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("decode export: %w", err)
	}
	return session.Restore(st)
}

// check runs every correctness gate; a gate failure is a *gateError.
func (r *runner) check(ctx context.Context, admin *client, reads, queries []*liveSession, feed *liveSession,
	stmts []statement, adds []addInput, before, after *scrapeData, ph *phaseResults) (*references, error) {
	forest, err := trees()
	if err != nil {
		return nil, err
	}
	all := append(slices.Clone(reads), feed)
	refs := &references{mirrors: map[*liveSession]*session.Engine{}, fresh: map[*liveSession]*session.Engine{}}
	rng := rand.New(rand.NewSource(r.cfg.seed + 17))
	for _, s := range all {
		raw, err := admin.export(ctx, s.name)
		if err != nil {
			return nil, err
		}
		if refs.mirrors[s], err = restore(raw); err != nil {
			return nil, err
		}
		fresh, err := openFresh(s, forest)
		if err != nil {
			return nil, err
		}
		refs.fresh[s] = fresh
		comp := fresh.Compression()
		if comp.VL != s.comp.VariableLoss || !sameLabels(comp.VVS.Labels(), s.comp.VVS) {
			return nil, gatef("session %s compressed to VL %d %v, a fresh compression to VL %d %v",
				s.name, s.comp.VariableLoss, s.comp.VVS, comp.VL, comp.VVS.Labels())
		}
		// The first answer, from set-up, before any add.
		if err := refs.near(fresh, map[string]float64{}, s.first); err != nil {
			return nil, gatef("session %s first answer: %v", s.name, err)
		}
		if s != feed {
			if err := matchWhatIf(refs.mirrors[s], map[string]float64{}, s.first); err != nil {
				return nil, gatef("session %s first answer: %v", s.name, err)
			}
		}
	}

	// The accuracy cost of scenarios that are not uniform on the VVS, on
	// the seed's telco data before any add.
	if err := r.relError(refs, queries[0], rng); err != nil {
		return nil, err
	}

	// One-shots of phases A and B must match their session's mirror bit
	// for bit.
	for _, smp := range append(slices.Clone(ph.samplesA), ph.samplesB...) {
		if err := matchWhatIf(refs.mirrors[smp.shot.s], smp.shot.assign, smp.raw); err != nil {
			return nil, gatef("session %s one-shot %v: %v", smp.shot.s.name, smp.shot.assign, err)
		}
	}

	// Every top-k row set: phase Q checked each repeat against the
	// statement's first row set, which must match the mirror's.
	for k, digest := range ph.digests {
		s := queries[stmts[k].session]
		want, err := refs.mirrors[s].Query(stmts[k].src)
		if err != nil {
			return nil, err
		}
		if digestRef(want.Rows) != digest {
			return nil, gatef("session %s statement %q: rows differ from the reference's", s.name, stmts[k].src)
		}
	}

	// The feed: no in-band errors (counted as failed operations), the
	// session holding exactly the acked adds in ack order, and answers
	// after the feed matching the mirror bit for bit and a fresh engine
	// fed the same acked adds.
	if got := after.stats[feed.name].Added - before.stats[feed.name].Added; got != int64(len(ph.acked)) {
		return nil, gatef("session %s holds %d added polynomials, %d adds were acked", feed.name, got, len(ph.acked))
	}
	tags := refs.mirrors[feed].Source().Tags[feed.in.polys:]
	fresh := refs.fresh[feed]
	for j, i := range ph.acked {
		if j >= len(tags) || tags[j] != adds[i].tag {
			return nil, gatef("session %s: added polynomial %d is not acked line %d", feed.name, j, i)
		}
		p, err := fresh.ParsePoly(adds[i].poly)
		if err != nil {
			return nil, err
		}
		fresh.Add(adds[i].tag, p)
	}
	for _, in := range makeWhatIfs(rng, 16, feed.comp.VVS) {
		_, raw, err := admin.whatif(ctx, feed.name, in.body, true)
		if err != nil {
			return nil, err
		}
		if err := matchWhatIf(refs.mirrors[feed], in.assign, raw); err != nil {
			return nil, gatef("session %s after the feed: %v", feed.name, err)
		}
		if err := refs.near(fresh, in.assign, raw); err != nil {
			return nil, gatef("session %s after the feed: %v", feed.name, err)
		}
	}

	// VVS-uniform scenarios through the gateway against the uncompressed
	// set.
	q0 := queries[0]
	mirror := refs.mirrors[q0]
	vvs := refs.fresh[q0].Compression().VVS
	source := mirror.Source().Compile()
	for i := 0; i < r.cfg.sizes.uniformChecks; i++ {
		meta := hypo.NewScenario()
		for _, l := range pick(rng, q0.comp.VVS, 2+rng.Intn(4)) {
			meta.Set(l, 0.5+float64(rng.Intn(101))/100)
		}
		_, raw, err := admin.whatif(ctx, q0.name, whatifBody(meta.Assign), true)
		if err != nil {
			return nil, err
		}
		got, err := decodeWhatIf(raw)
		if err != nil {
			return nil, err
		}
		want, err := meta.UniformOn(vvs).EvalCompiled(source)
		if err != nil {
			return nil, err
		}
		if len(got) != len(want) {
			return nil, gatef("uniform scenario %v: %d answers, want %d", meta.Assign, len(got), len(want))
		}
		for j := range want {
			if math.Abs(got[j].Value-want[j]) > uniformTolerance*(1+math.Abs(want[j])) {
				return nil, gatef("uniform scenario %v: answer %d is %v, the uncompressed set gives %v",
					meta.Assign, j, got[j].Value, want[j])
			}
		}
	}
	for _, s := range all {
		if c := after.stats[s.name].Compiles; c != 1 {
			return nil, gatef("session %s compiled %d times, want 1", s.name, c)
		}
	}
	return refs, nil
}

// relError sets max_rel_error: the largest relative error of the
// compressed session's answers against the uncompressed set's, over
// scenarios on leaf variables that are not uniform on the VVS, projected
// with Scenario.Project. A scenario's error is that of its whole answer
// vector (L1), so the figure does not hinge on the seed's smallest zip.
func (r *runner) relError(refs *references, s *liveSession, rng *rand.Rand) error {
	fresh := refs.fresh[s]
	vvs := fresh.Compression().VVS
	source := fresh.Source().Compile()
	for i := 0; i < r.cfg.sizes.relErrSamples; i++ {
		sc := hypo.NewScenario()
		for m := 1; m <= 12; m++ {
			sc.Set(telco.MonthVar(m), 0.5+float64(rng.Intn(101))/100)
		}
		for _, p := range rng.Perm(128)[:1+rng.Intn(3)] {
			sc.Set(telco.PlanVar(p), 0.5+float64(rng.Intn(101))/100)
		}
		if ok, _ := sc.IsUniformOn(vvs); ok {
			continue
		}
		exact, err := sc.EvalCompiled(source)
		if err != nil {
			return err
		}
		approx, err := fresh.WhatIfIn(semiring.KindFloat, sc.Project(vvs))
		if err != nil {
			return err
		}
		refs.maxRelErr = max(refs.maxRelErr, relL1(exact, floats(approx)))
	}

	return nil
}

// relL1 is ‖approx − exact‖₁ / ‖exact‖₁.
func relL1(exact, approx []float64) float64 {
	var diff, norm float64
	for i := range exact {
		diff += math.Abs(approx[i] - exact[i])
		norm += math.Abs(exact[i])
	}
	return diff / norm
}

// near compares wire answers with a freshly compressed engine's: tags and
// count exact, values within recompressTolerance, last-bit differences
// counted.
func (refs *references) near(fresh *session.Engine, assign map[string]float64, raw []byte) error {
	got, err := decodeWhatIf(raw)
	if err != nil {
		return err
	}
	want, err := fresh.WhatIfIn(semiring.KindFloat, scenario(assign))
	if err != nil {
		return err
	}
	if len(want) != len(got) {
		return fmt.Errorf("%d answers, a fresh compression has %d", len(got), len(want))
	}
	for i, w := range want {
		wv := w.Value.(float64)
		if got[i].Tag != w.Tag || math.Abs(got[i].Value-wv) > recompressTolerance*math.Abs(wv) {
			return fmt.Errorf("answer %d is %s=%v, a fresh compression has %s=%v", i, got[i].Tag, got[i].Value, w.Tag, wv)
		}
		if math.Float64bits(got[i].Value) != math.Float64bits(wv) {
			refs.lastBitDiffs++
		}
	}
	return nil
}

func scenario(assign map[string]float64) *hypo.Scenario {
	sc := hypo.NewScenario()
	for k, v := range assign {
		sc.Set(k, v)
	}
	return sc
}

func floats(answers []hypo.ValueAnswer) []float64 {
	out := make([]float64, len(answers))
	for i, a := range answers {
		out[i] = a.Value.(float64)
	}
	return out
}

func pick(rng *rand.Rand, labels []string, k int) []string {
	out := make([]string, 0, k)
	for _, i := range rng.Perm(len(labels))[:min(k, len(labels))] {
		out = append(out, labels[i])
	}
	return out
}

func sameLabels(a, b []string) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	sort.Strings(a)
	sort.Strings(b)
	return slices.Equal(a, b)
}

// matchWhatIf compares a one-shot's wire answers with an engine's, tags
// equal and values Float64bits-identical.
func matchWhatIf(eng *session.Engine, assign map[string]float64, raw []byte) error {
	got, err := decodeWhatIf(raw)
	if err != nil {
		return err
	}
	want, err := eng.WhatIfIn(semiring.KindFloat, scenario(assign))
	if err != nil {
		return err
	}
	return matchAnswers(want, got)
}

func matchAnswers(want []hypo.ValueAnswer, got []wireAnswer) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d answers, the reference has %d", len(got), len(want))
	}
	for i, w := range want {
		wv := w.Value.(float64)
		if got[i].Tag != w.Tag || math.Float64bits(got[i].Value) != math.Float64bits(wv) {
			return fmt.Errorf("answer %d is %s=%v, the reference has %s=%v", i, got[i].Tag, got[i].Value, w.Tag, wv)
		}
	}
	return nil
}

// digestRows hashes a row set from the wire: indexes, assignments, and
// answer tags and bits.
func digestRows(rows []queryRow) uint64 {
	d := newRowDigest()
	for _, row := range rows {
		d.row(row.Index, row.Assign)
		for _, a := range row.Answers {
			d.answer(a.Tag, a.Value)
		}
	}
	return d.Sum64()
}

// digestRef is digestRows for a reference engine's rows.
func digestRef(rows []session.QueryRow) uint64 {
	d := newRowDigest()
	for _, row := range rows {
		d.row(row.Index, row.Assign)
		for _, a := range row.Answers {
			d.answer(a.Tag, a.Value.(float64))
		}
	}
	return d.Sum64()
}

type rowDigest struct{ hash.Hash64 }

func newRowDigest() rowDigest { return rowDigest{fnv.New64a()} }

func (d rowDigest) put(x uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	d.Write(b[:])
}

func (d rowDigest) row(index int64, assign map[string]float64) {
	d.put(uint64(index))
	keys := make([]string, 0, len(assign))
	for k := range assign {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		d.Write([]byte(k))
		d.put(math.Float64bits(assign[k]))
	}
}

func (d rowDigest) answer(tag string, v float64) {
	d.Write([]byte(tag))
	d.put(math.Float64bits(v))
}
