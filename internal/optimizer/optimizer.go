package optimizer

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"adj/internal/costmodel"
	"adj/internal/ghd"
	"adj/internal/hcube"
	"adj/internal/hypergraph"
	"adj/internal/relation"
	"adj/internal/sampling"
)

// Options configures the planner.
type Options struct {
	// Params are the cost constants (engines pass costmodel.DefaultParams).
	Params costmodel.Params
	// Samples per cardinality estimation (§IV; the paper uses 10^5 at full
	// scale, scaled instances need fewer).
	Samples int
	Seed    int64
	// Cancel, when non-nil, is threaded into every sampling run — whose
	// shards poll it from several goroutines — so a cancelled context
	// aborts planning promptly (estimates truncated by cancellation are
	// garbage, so the caller must abandon the plan).
	Cancel func() bool
}

// Optimizer plans one query over one database.
type Optimizer struct {
	Q      hypergraph.Query
	Rels   []*relation.Relation
	Decomp *ghd.Decomposition
	opts   Options

	attrs []string
	// ix is the pass's sampling index: every estimate below takes its tries
	// from it, so a plan builds each distinct trie once. It lives and dies
	// with the optimizer.
	ix *sampling.Index
	// tCache memoizes |T_S| estimates by attribute-set key.
	tCache map[string]float64
	// bagCache memoizes |Rv| estimates by bag ID.
	bagCache map[int]float64
	// SampleOps sums the extension work of every estimate the optimizer has
	// sampled; a memoized answer adds nothing.
	SampleOps int64
	// subsetBudget is SubsetSize's per-sample work cap.
	subsetBudget int64
}

// New builds an optimizer: it computes the GHD immediately (cheap for the
// catalog queries) and defers sampling until costs are needed.
func New(q hypergraph.Query, rels []*relation.Relation, opts Options) (*Optimizer, error) {
	if opts.Samples <= 0 {
		opts.Samples = 1000
	}
	if opts.Params.NumServers <= 0 {
		opts.Params.NumServers = 1
	}
	d, err := ghd.Decompose(q)
	if err != nil {
		return nil, err
	}
	return &Optimizer{
		Q: q, Rels: rels, Decomp: d, opts: opts,
		attrs:    q.Attrs(),
		ix:       sampling.NewIndex(),
		tCache:   make(map[string]float64),
		bagCache: make(map[int]float64),

		subsetBudget: 5000,
	}, nil
}

// SubsetSize estimates |T_S|: the number of Leapfrog partial bindings over
// the given attribute set (order-independent; memoized). The empty set has
// size 1 (the empty binding t0).
//
// The estimate samples down S in canonical attribute order, so its level i
// counts the bindings of S's first i+1 canonical attributes. When no sample
// was cut short, those counts are exactly what SubsetSize would return for
// each such prefix — the same first attribute and seed draw the same
// samples, the relations reaching those depths have the same tries, and a
// shallower run does less work, so it cannot truncate either — and they are
// memoized too. A truncated run memoizes only S.
func (o *Optimizer) SubsetSize(attrSet []string) float64 {
	if len(attrSet) == 0 {
		return 1
	}
	o.fill([]need{{set: attrSet}})
	return o.tCache[setKey(attrSet)]
}

// need is one memoized estimate a planning step reads: |T_S| for the
// attribute set S, or |Rv| for bag v when set is nil.
type need struct {
	set []string
	bag int
}

// job is a need being sampled.
type job struct {
	need
	key   string   // setKey(set), for a subset
	order []string // the order a subset is sampled in: S canonical, then the rest
	est   sampling.Estimate
	err   error
}

// fill memoizes every need not yet memoized, leaving tCache, bagCache and
// SampleOps exactly as asking for the needs one at a time, in order, would
// (SubsetSize and BagSize are fill of one need). The estimates run
// concurrently — none depends on what runs beside it — and their results
// are written afterwards in the needs' order. Only the prefix memo couples
// them: a set that an earlier, untruncated run of the batch covers as a
// canonical prefix is by then a memo hit, so its own run is dropped and
// adds nothing to SampleOps, as the one-at-a-time loop would not have
// sampled it. (No catalog query's planning batch holds such a pair.) A
// batch is one planning step's — at most a set and a bag per bag of the
// decomposition, or a set per attribute — so each estimate gets its own
// goroutine.
func (o *Optimizer) fill(needs []need) {
	var jobs []*job
	queued := make(map[string]bool)
	queuedBag := make(map[int]bool)
	for _, n := range needs {
		if n.set == nil {
			if _, ok := o.bagCache[n.bag]; ok || queuedBag[n.bag] {
				continue
			}
			if b := o.Decomp.Bags[n.bag]; b.IsBase() {
				o.bagCache[n.bag] = float64(o.Rels[b.Atoms[0]].Len())
				continue
			}
			queuedBag[n.bag] = true
			jobs = append(jobs, &job{need: n})
			continue
		}
		key := setKey(n.set)
		if _, ok := o.tCache[key]; ok || queued[key] {
			continue
		}
		queued[key] = true
		jobs = append(jobs, &job{need: n, key: key, order: o.orderWithPrefix(n.set)})
	}
	if len(jobs) == 0 {
		return
	}
	var wg sync.WaitGroup
	for _, j := range jobs[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o.sample(j)
		}()
	}
	o.sample(jobs[0])
	wg.Wait()
	for _, j := range jobs {
		o.absorb(j)
	}
}

// sample runs j's estimate. It reads the optimizer but writes only j, so
// the jobs of a batch run concurrently.
func (o *Optimizer) sample(j *job) {
	if j.set != nil {
		j.est, j.err = o.ix.Estimate(o.Rels, j.order, o.subsetConfig(len(j.set)))
		return
	}
	b := o.Decomp.Bags[j.bag]
	rels := make([]*relation.Relation, len(b.Atoms))
	for i, ai := range b.Atoms {
		rels[i] = o.Rels[ai]
	}
	j.est, j.err = o.ix.Estimate(rels, bagOrder(rels), sampling.Config{
		Samples: o.opts.Samples, Seed: o.opts.Seed, Cancel: o.opts.Cancel,
	})
}

// absorb writes j's result into the memos and SampleOps, unless an earlier
// run's prefix already answered it.
func (o *Optimizer) absorb(j *job) {
	if j.set == nil {
		v := 0.0
		if j.err == nil {
			v = j.est.Cardinality
			o.SampleOps += j.est.WorkOps
		}
		o.bagCache[j.bag] = v
		return
	}
	if _, ok := o.tCache[j.key]; ok {
		return
	}
	v := 0.0
	if j.err == nil {
		v = j.est.LevelCounts[len(j.set)-1]
		o.SampleOps += j.est.WorkOps
		if !j.est.Truncated {
			for i := range len(j.set) - 1 {
				k := setKey(j.order[:i+1])
				if _, ok := o.tCache[k]; !ok {
					o.tCache[k] = j.est.LevelCounts[i]
				}
			}
		}
	}
	o.tCache[j.key] = v
}

// subsetConfig is the sampling run SubsetSize makes for a set of depth
// attributes. Loose attribute sets (few constraining relations) can have
// enormous partial joins; a per-sample work cap keeps planning cost bounded
// — truncated estimates read as "at least huge", which is all ordering
// decisions need.
func (o *Optimizer) subsetConfig(depth int) sampling.Config {
	return sampling.Config{
		Samples:         min(o.opts.Samples, 150),
		Seed:            o.opts.Seed,
		MaxDepth:        depth,
		PerSampleBudget: o.subsetBudget,
		Cancel:          o.opts.Cancel,
	}
}

// orderWithPrefix returns a full attribute order starting with the subset
// (in canonical attrs order) followed by the remaining attributes.
func (o *Optimizer) orderWithPrefix(subset []string) []string {
	in := make(map[string]bool, len(subset))
	for _, a := range subset {
		in[a] = true
	}
	var out []string
	for _, a := range o.attrs {
		if in[a] {
			out = append(out, a)
		}
	}
	for _, a := range o.attrs {
		if !in[a] {
			out = append(out, a)
		}
	}
	return out
}

// BagSize estimates |Rv| = |⋈ λ(v)| for a bag (memoized). Base bags use
// the exact relation size.
func (o *Optimizer) BagSize(id int) float64 {
	o.fill([]need{{bag: id}})
	return o.bagCache[id]
}

// bagOrder returns the attribute order for a bag-local estimation.
func bagOrder(rels []*relation.Relation) []string {
	var out []string
	seen := map[string]bool{}
	for _, r := range rels {
		for _, a := range r.Attrs {
			if !seen[a] {
				seen[a] = true
				out = append(out, a)
			}
		}
	}
	return out
}

// relSetFor returns the HCube relation infos of the query candidate Qi
// defined by precomputing the bags in C: materialized bags contribute their
// estimated output, other bags contribute their base relations.
func (o *Optimizer) relSetFor(c map[int]bool) []hcube.RelInfo {
	var out []hcube.RelInfo
	for _, b := range o.Decomp.Bags {
		if c[b.ID] && !b.IsBase() {
			out = append(out, hcube.RelInfo{
				Name:  BagRelationName(o.Decomp, b.ID),
				Attrs: b.Vertices,
				Size:  int64(o.BagSize(b.ID)),
			})
			continue
		}
		for _, ai := range b.Atoms {
			r := o.Rels[ai]
			out = append(out, hcube.RelInfo{Name: r.Name, Attrs: r.Attrs, Size: int64(r.Len())})
		}
	}
	return out
}

// commCost returns costC for the candidate set C.
func (o *Optimizer) commCost(c map[int]bool) float64 {
	sec, _, err := costmodel.CommCost(o.relSetFor(c), o.attrs, o.opts.Params)
	if err != nil {
		return 1e18
	}
	return sec
}

// precomputeCost returns costM(Rv).
func (o *Optimizer) precomputeCost(id int) float64 {
	b := o.Decomp.Bags[id]
	if b.IsBase() {
		return 0
	}
	var inputs []hcube.RelInfo
	for _, ai := range b.Atoms {
		r := o.Rels[ai]
		inputs = append(inputs, hcube.RelInfo{Name: r.Name, Attrs: r.Attrs, Size: int64(r.Len())})
	}
	return costmodel.PrecomputeCost(inputs, o.BagSize(id), o.opts.Params)
}

// CoOptimize runs Alg. 2: build the traversal order in reverse, choosing at
// each position the node (and whether to pre-compute it) with the lowest
// combined cost.
func (o *Optimizer) CoOptimize() (*Plan, error) {
	d := o.Decomp
	n := len(d.Bags)
	remaining := make(map[int]bool, n)
	for _, b := range d.Bags {
		remaining[b.ID] = true
	}
	chosen := make(map[int]bool) // C: bags to pre-compute
	var reverse []int
	est := Cost{}

	for len(remaining) > 0 {
		type candidate struct {
			v          int
			precompute bool
			cost       float64
			extendCost float64
			preCost    float64
		}
		// The round's candidates, and the estimates they read — |T| of the
		// remaining prefix, |Rv| of a bag that may be pre-computed — sampled
		// together before any is weighed.
		var cands []ghd.Bag
		var prefixes [][]string
		var needs []need
		for _, b := range d.Bags {
			if !remaining[b.ID] || !o.prefixConnected(remaining, b.ID) {
				continue
			}
			cands = append(cands, b)
			// |T_{v_{i-1}}|: bindings over the attrs of the remaining prefix.
			prefixes = append(prefixes, o.attrsOfBags(remaining, b.ID))
			needs = append(needs, need{set: prefixes[len(prefixes)-1]})
			if !b.IsBase() && !chosen[b.ID] {
				needs = append(needs, need{bag: b.ID})
			}
		}
		o.fill(needs)
		// Candidates are visited in bag-ID order and replace the incumbent
		// only when strictly cheaper, so equal costs resolve to the lower
		// bag ID, then to not pre-computing: the plan is a function of the
		// costs, not of map iteration order.
		var best *candidate
		commNow := o.commCost(chosen) // the same for every candidate of this round
		for i, b := range cands {
			v := b.ID
			bindings := o.SubsetSize(prefixes[i])

			// Branch 1: do not pre-compute v.
			ext1 := costmodel.ExtendCost(bindings, o.opts.Params.BetaFor(chosen[v]), o.opts.Params.NumServers)
			cost1 := commNow + ext1
			if best == nil || cost1 < best.cost {
				best = &candidate{v: v, precompute: false, cost: cost1, extendCost: ext1}
			}
			// Branch 2: pre-compute v (only meaningful for non-base bags).
			if !b.IsBase() && !chosen[v] {
				c2 := cloneSet(chosen)
				c2[v] = true
				pre := o.precomputeCost(v)
				ext2 := costmodel.ExtendCost(bindings, o.opts.Params.BetaFor(true), o.opts.Params.NumServers)
				cost2 := pre + o.commCost(c2) + ext2
				if cost2 < best.cost {
					best = &candidate{v: v, precompute: true, cost: cost2, extendCost: ext2, preCost: pre}
				}
			}
		}
		if best == nil {
			return nil, fmt.Errorf("optimizer: no orderable node among %v (tree disconnected?)", keys(remaining))
		}
		if best.precompute {
			chosen[best.v] = true
		}
		reverse = append(reverse, best.v)
		delete(remaining, best.v)
		est.Computation += best.extendCost
		est.PreCompute += best.preCost
	}

	// Reverse into a forward traversal.
	traversal := make([]int, n)
	for i, v := range reverse {
		traversal[n-1-i] = v
	}
	est.Communication = o.commCost(chosen)

	plan := &Plan{Query: o.Q, Decomp: d, Traversal: traversal, Est: est}
	for id := range chosen {
		plan.Precompute = append(plan.Precompute, id)
	}
	sort.Ints(plan.Precompute)
	plan.AttrOrder = o.attrOrderFor(traversal)
	return plan, nil
}

// CommunicationFirst builds the HCubeJ baseline plan: no pre-computation,
// shares chosen purely for communication, and the attribute order selected
// from all n! orders with the cheap sketch estimator (Fig. 8's
// "All-Selected") — the exact strategy whose estimation errors §IV blames
// for sub-optimal orders.
func (o *Optimizer) CommunicationFirst() (*Plan, error) {
	order := o.ChooseOrderSketch(ghd.AllAttrOrders(o.attrs))
	// A canonical traversal covering all bags, for reporting only.
	traversals := o.Decomp.TraversalOrders()
	plan := &Plan{Query: o.Q, Decomp: o.Decomp, Traversal: traversals[0], AttrOrder: order}
	plan.Est.Communication = o.commCost(nil)
	return plan, nil
}

// ChooseOrder returns the order minimizing the estimated total number of
// intermediate tuples Σ_i |T_prefix_i| (prefix sizes are set-memoized, so
// enumerating all orders shares almost all sampling work).
func (o *Optimizer) ChooseOrder(orders [][]string) []string {
	best := orders[0]
	bestCost := 1e308
	for _, ord := range orders {
		c := o.estimateOrderCost(ord)
		if c < bestCost {
			bestCost = c
			best = ord
		}
	}
	return best
}

// estimateOrderCost sums estimated intermediate sizes over the order's
// proper prefixes.
func (o *Optimizer) estimateOrderCost(order []string) float64 {
	t := 0.0
	for i := 1; i < len(order); i++ {
		t += o.SubsetSize(order[:i])
	}
	return t
}

// attrOrderFor converts a bag traversal into a full attribute order,
// choosing each bag's within-bag order by estimated intermediate size
// (greedily; a group's last attribute is forced, so it is not estimated).
func (o *Optimizer) attrOrderFor(traversal []int) []string {
	groups := o.Decomp.NewAttrsAt(traversal)
	var out []string
	for _, grp := range groups {
		grp = append([]string(nil), grp...)
		for len(grp) > 1 {
			// Greedily pick the next attribute minimizing |T_{prefix+a}|,
			// sampling every rival's set at once.
			needs := make([]need, len(grp))
			for i, a := range grp {
				needs[i] = need{set: append(slices.Clone(out), a)}
			}
			o.fill(needs)
			bestI := 0
			bestV := 1e308
			for i, n := range needs {
				v := o.SubsetSize(n.set)
				if v < bestV {
					bestV = v
					bestI = i
				}
			}
			out = append(out, grp[bestI])
			grp = append(grp[:bestI], grp[bestI+1:]...)
		}
		// The last attribute has no rival: it goes last unestimated.
		out = append(out, grp...)
	}
	return out
}

// ExhaustivePlan searches every (C, traversal) pair with the same cost
// model — exponential, used only by the ablation benchmark to check the
// greedy's quality.
func (o *Optimizer) ExhaustivePlan() (*Plan, error) {
	d := o.Decomp
	var nonBase []int
	for _, b := range d.Bags {
		if !b.IsBase() {
			nonBase = append(nonBase, b.ID)
		}
	}
	traversals := d.TraversalOrders()
	var best *Plan
	for mask := 0; mask < 1<<len(nonBase); mask++ {
		c := make(map[int]bool)
		for i, id := range nonBase {
			if mask&(1<<i) != 0 {
				c[id] = true
			}
		}
		for _, tr := range traversals {
			cost := o.planCost(c, tr)
			if best == nil || cost.Total() < best.Est.Total() {
				plan := &Plan{Query: o.Q, Decomp: d, Traversal: append([]int(nil), tr...), Est: cost}
				for id := range c {
					plan.Precompute = append(plan.Precompute, id)
				}
				sort.Ints(plan.Precompute)
				best = plan
			}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("optimizer: no plan found")
	}
	best.AttrOrder = o.attrOrderFor(best.Traversal)
	return best, nil
}

// planCost evaluates the full model cost of (C, traversal).
func (o *Optimizer) planCost(c map[int]bool, traversal []int) Cost {
	var cost Cost
	for id := range c {
		cost.PreCompute += o.precomputeCost(id)
	}
	cost.Communication = o.commCost(c)
	prefix := make(map[int]bool)
	for i, v := range traversal {
		if i > 0 {
			bindings := o.SubsetSize(o.attrsOfBags(prefix, -1))
			cost.Computation += costmodel.ExtendCost(bindings, o.opts.Params.BetaFor(c[v]), o.opts.Params.NumServers)
		} else {
			cost.Computation += costmodel.ExtendCost(1, o.opts.Params.BetaFor(c[v]), o.opts.Params.NumServers)
		}
		prefix[v] = true
	}
	return cost
}

// prefixConnected reports whether remaining \ {v} stays connected in the
// join tree (Alg. 2 line 6).
func (o *Optimizer) prefixConnected(remaining map[int]bool, v int) bool {
	var rest []int
	for u := range remaining {
		if u != v {
			rest = append(rest, u)
		}
	}
	if len(rest) <= 1 {
		return true
	}
	in := make(map[int]bool, len(rest))
	for _, u := range rest {
		in[u] = true
	}
	vis := map[int]bool{rest[0]: true}
	stack := []int{rest[0]}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range o.Decomp.Adj[u] {
			if in[w] && !vis[w] {
				vis[w] = true
				stack = append(stack, w)
			}
		}
	}
	return len(vis) == len(rest)
}

// attrsOfBags returns the attribute union of the bags in set minus skip.
func (o *Optimizer) attrsOfBags(set map[int]bool, skip int) []string {
	seen := make(map[string]bool)
	var out []string
	for _, a := range o.attrs {
		for id := range set {
			if id == skip {
				continue
			}
			if containsVert(o.Decomp.Bags[id].Vertices, a) && !seen[a] {
				seen[a] = true
				out = append(out, a)
			}
		}
	}
	return out
}

func containsVert(sorted []string, v string) bool {
	i := sort.SearchStrings(sorted, v)
	return i < len(sorted) && sorted[i] == v
}

func cloneSet(m map[int]bool) map[int]bool {
	out := make(map[int]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func keys(m map[int]bool) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func setKey(attrs []string) string {
	s := append([]string(nil), attrs...)
	sort.Strings(s)
	return strings.Join(s, "\x00")
}
