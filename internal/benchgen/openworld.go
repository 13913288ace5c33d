package benchgen

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"dynsum/internal/openworld"
	"dynsum/internal/pag"
)

// Open-world workloads: a generated benchmark whose exact answers are known
// (the oracle) paired with a counterpart in which a fraction of the library
// methods lost their bodies (openworld.StripBodies). Because stripping is
// ID-stable, a query var means the same node in both programs and the
// soundness obligation is directly checkable: every open-world answer must
// contain the oracle's objects, with each deleted-method allocation covered
// by the owning method's blob object.
//
// Deletion targets only lib.* methods — the open-world story is missing
// library code; application methods hold the query sites and keep their
// bodies — picked deterministically from the workload seed.

// OWProfile names one open-world workload: a Table 3 base row and the
// fraction of its library methods to strip. Deletion takes whole methods
// from every library layer — setters and getters, wrappers and interior
// call-chain methods alike — so both spec-expressible flows and
// blended-blob fallbacks are exercised.
type OWProfile struct {
	Base string
	// Fraction of eligible library methods to delete (0 < f <= 1); at
	// least one method is always deleted.
	Fraction float64
}

// Name returns the workload's benchmark name, e.g. "avrora-ow25".
func (p OWProfile) Name() string {
	return fmt.Sprintf("%s-ow%d", p.Base, int(p.Fraction*100+0.5))
}

// OpenWorldProfiles lists the open-world sweep: two base rows at growing
// deletion fractions.
var OpenWorldProfiles = makeOpenWorldProfiles()

func makeOpenWorldProfiles() []OWProfile {
	var out []OWProfile
	for _, base := range []string{"avrora", "luindex"} {
		for _, frac := range []float64{0.10, 0.25, 0.50} {
			out = append(out, OWProfile{Base: base, Fraction: frac})
		}
	}
	return out
}

// OpenWorldProfileByName returns the named open-world workload.
func OpenWorldProfileByName(name string) (OWProfile, bool) {
	for _, p := range OpenWorldProfiles {
		if p.Name() == name {
			return p, true
		}
	}
	return OWProfile{}, false
}

// OpenWorldBench is one generated open-world workload.
type OpenWorldBench struct {
	// Oracle is the full program (frozen), the ground truth.
	Oracle *pag.Program
	// Stripped is the open-world counterpart (frozen): same node IDs, the
	// deleted methods bodyless with blob nodes appended at the tail. Its
	// query lists alias the oracle's — IDs mean the same thing.
	Stripped *pag.Program
	// Deleted lists the stripped methods, ascending.
	Deleted []pag.MethodID
	// Specs is the derived spec file for the deleted methods
	// (openworld.DeriveSpecs): the best spec the grammar admits, with
	// interior-routed methods falling back to blended.
	Specs *openworld.File
}

// GenerateOpenWorld builds the open-world workload for profile ow at the
// given scale and seed. Deterministic: the same (ow, scale, seed) produces
// the same oracle, deletion set and specs.
func GenerateOpenWorld(ow OWProfile, scale float64, seed int64) (*OpenWorldBench, error) {
	base, ok := ProfileByName(ow.Base)
	if !ok {
		return nil, fmt.Errorf("benchgen: unknown base profile %q", ow.Base)
	}
	oracle := Generate(base.Scaled(scale), seed)

	deleted := pickDeletions(oracle.G, ow, seed)
	if len(deleted) == 0 {
		return nil, fmt.Errorf("benchgen: %s: no eligible library methods to delete", ow.Name())
	}
	sg, err := openworld.StripBodies(oracle.G, deleted)
	if err != nil {
		return nil, fmt.Errorf("benchgen: %s: %w", ow.Name(), err)
	}
	sg.Freeze()

	specs, err := openworld.DeriveSpecs(oracle.G, sg)
	if err != nil {
		return nil, fmt.Errorf("benchgen: %s: %w", ow.Name(), err)
	}

	stripped := pag.NewProgram(ow.Name(), sg)
	stripped.Casts = oracle.Casts
	stripped.Derefs = oracle.Derefs
	stripped.Factories = oracle.Factories
	return &OpenWorldBench{Oracle: oracle, Stripped: stripped, Deleted: deleted, Specs: specs}, nil
}

// pickDeletions selects the methods to strip: a deterministic sample of
// the requested fraction of the lib.* methods.
func pickDeletions(g *pag.Graph, ow OWProfile, seed int64) []pag.MethodID {
	var eligible []pag.MethodID
	for m := 0; m < g.NumMethods(); m++ {
		id := pag.MethodID(m)
		if strings.HasPrefix(g.MethodInfo(id).Name, "lib.") {
			eligible = append(eligible, id)
		}
	}
	if len(eligible) == 0 {
		return nil
	}
	n := int(float64(len(eligible))*ow.Fraction + 0.5)
	if n < 1 {
		n = 1
	}
	if n > len(eligible) {
		n = len(eligible)
	}
	// Deterministic sample: shuffle a copy with a seed-derived source, take
	// the prefix, restore ascending order.
	rng := rand.New(rand.NewSource(seed ^ 0x09e77041d))
	rng.Shuffle(len(eligible), func(i, j int) { eligible[i], eligible[j] = eligible[j], eligible[i] })
	picked := eligible[:n]
	sort.Slice(picked, func(i, j int) bool { return picked[i] < picked[j] })
	return picked
}
