package campaign

import "testing"

const testCode = "v1.2.3-g0123abc"

func mustDigest(t *testing.T, req Request) string {
	t.Helper()
	d, err := Digest(req, testCode)
	if err != nil {
		t.Fatalf("Digest(%+v) = %v", req, err)
	}
	return d
}

// Default spellings normalize: an omitted seeds/baseSeed field is the
// same request as the explicit default.
func TestDigestNormalizesDefaults(t *testing.T) {
	implicit := Request{Kind: Sweep, Experiment: "fig10"}
	explicit := Request{Kind: Sweep, Experiment: "fig10", Seeds: 1, BaseSeed: 1}
	if d1, d2 := mustDigest(t, implicit), mustDigest(t, explicit); d1 != d2 {
		t.Fatalf("default and explicit-default requests digest differently:\n  %s\n  %s", d1, d2)
	}
	// A fault plan digests as the plan it parses to, not as its spelling.
	for _, pair := range [][2]string{{"uniform", "none"}, {"uniform:drop=0.01", " uniform:drop=1e-2,dup=0"}} {
		a, b := implicit, implicit
		a.Faults, b.Faults = pair[0], pair[1]
		if d1, d2 := mustDigest(t, a), mustDigest(t, b); d1 != d2 {
			t.Errorf("fault specs %q and %q digest differently:\n  %s\n  %s", pair[0], pair[1], d1, d2)
		}
	}
}

// Every single-field perturbation must change the digest: if any of
// these collided, the cache would serve one configuration's results for
// another's.
func TestDigestPerturbationSensitivity(t *testing.T) {
	base := Request{Kind: Sweep, Experiment: "fig10", Seeds: 4, BaseSeed: 1, Faults: "burst-loss"}
	d0 := mustDigest(t, base)

	perturb := map[string]Request{}
	r := base
	r.Experiment = "fig11"
	perturb["experiment"] = r
	r = base
	r.Seeds = 5
	perturb["seeds"] = r
	r = base
	r.BaseSeed = 2
	perturb["base seed"] = r
	r = base
	r.Faults = "corruptor"
	perturb["fault plan"] = r
	r = base
	r.Faults = "uniform:drop=0.001"
	perturb["uniform plan"] = r
	r = base
	r.Faults = ""
	perturb["clean fabric"] = r

	r = base
	r.Faults = "uniform:dup=0.001"
	perturb["uniform kind"] = r

	seen := map[string]string{"": "base"}
	_ = d0
	seen[d0] = "base"
	for name, req := range perturb {
		d := mustDigest(t, req)
		if prev, dup := seen[d]; dup {
			t.Errorf("digest collision: %q and %q share %s", name, prev, d)
		}
		seen[d] = name
	}

	// The code version is part of the address: the same request on new
	// code must miss the old entry.
	d2, err := Digest(base, testCode+"-dirty")
	if err != nil {
		t.Fatal(err)
	}
	if d2 == d0 {
		t.Error("git describe perturbation did not change the digest")
	}
}

// The digest of a sweep request is pinned: it must not move when the
// request type loses fields no sweep sets (each was omitempty and empty on
// every sweep), or every entry already in a cache directory would stop
// answering.
func TestDigestPinned(t *testing.T) {
	req := Request{Kind: Sweep, Experiment: "fig10", Seeds: 2, Faults: "burst-loss"}
	const want = "0195db4899377300f993d0af13268efafa7546bb9ae3949bdf4b7260e23a4bd9"
	if got := mustDigest(t, req); got != want {
		t.Fatalf("digest of %+v = %s, want %s", req, got, want)
	}
}

func TestCanonicalizeRejectsContradictions(t *testing.T) {
	bad := []Request{
		{},
		{Kind: "mystery"},
		{Kind: "chaos"},
		{Kind: "trace", Experiment: "fig10"},
		{Kind: Sweep},
		{Kind: Sweep, Experiment: "no-such-exp"},
		{Kind: Sweep, Experiment: "fig10", Seeds: -1},
		{Kind: Sweep, Experiment: "fig10", Faults: "no-such-plan"},
		{Kind: Sweep, Experiment: "fig10", Faults: "@/etc/hostname"},
	}
	for _, req := range bad {
		if _, err := Canonicalize(req); err == nil {
			t.Errorf("Canonicalize(%+v) accepted a contradictory request", req)
		}
	}
}
