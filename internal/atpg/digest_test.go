package atpg

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// resultDigest is the SHA-256 of a result's final patterns, raw cubes and
// per-fault outcomes, in order.
func resultDigest(res *Result) string {
	h := sha256.New()
	for _, p := range res.Patterns {
		fmt.Fprintf(h, "P%s\n", p)
	}
	for _, c := range res.Cubes {
		fmt.Fprintf(h, "C%s\n", c)
	}
	for _, o := range res.Outcomes {
		fmt.Fprintf(h, "O%d/%d/%d/%d/%d\n", o.Fault.Gate, o.Fault.Pin, o.Fault.Stuck, o.Status, o.Backtracks)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestOptionSets are the generation option sets the pinned digests cover:
// the defaults, dynamic compaction with an escalation pass, no random
// phase, and no static compaction.
var digestOptionSets = map[string]func(*Options){
	"default":   func(*Options) {},
	"dynamic2":  func(o *Options) { o.DynamicCompact = true; o.Passes = 2 },
	"norandom":  func(o *Options) { o.RandomPatterns = 0 },
	"nocompact": func(o *Options) { o.Compact = false },
}

// TestPatternSetDigests pins the exact pattern sets of the six stand-ins
// under four option sets. A change to the random phase, PODEM, fault
// dropping or compaction that alters any pattern, cube or outcome fails
// here; such a change must explain itself and re-pin the digests.
func TestPatternSetDigests(t *testing.T) {
	want := []struct {
		circuit, options string
		patterns         int
		digest           string
	}{
		{"s713", "default", 34, "65d80080f3328f03bd5bb8b325e6ccf2c4bff5727a3e74916e894280c701b0e7"},
		{"s713", "dynamic2", 33, "c07e1730aabca4e341a903878735624e4e9661215ab3b86a055b03f0f8aecaee"},
		{"s713", "norandom", 43, "5db1ff7e0f737aa518247433a0150e2bce852dcfa8b93d1e8a6c8eb8cf1dc489"},
		{"s713", "nocompact", 48, "45c41100087f9067aff4c0983e62f4f4f6a39820b8122901d097e2500f344fc7"},
		{"s953", "default", 37, "7a8c4aa4af35b95d6c7ccd22392d89d632f33661115bb2c8f05a34ca883c73a9"},
		{"s953", "dynamic2", 36, "bb83ab3e583558c3b3dc92078a63dc2ba10a3dd7cd402bdabac9fef284ec40fc"},
		{"s953", "norandom", 43, "6f44f6c5f5a164968464770fba78c3b4bb1ffc6815f8d292140666f8a3b87e1f"},
		{"s953", "nocompact", 57, "3b89da2c6bd74193e5b7728e495d1526c08e775316a7b9c1f0022dbfea48a6bb"},
		{"s1423", "default", 71, "366688cd376bbdf89b074ceff05ab44ee016dbcf83467c43a30345854a168ebf"},
		{"s1423", "dynamic2", 57, "d8a3f6632448e44402a411cb677039c29949c0898517f314fd395faf27fe7627"},
		{"s1423", "norandom", 79, "e1596c02efcf3e2f0efd0542b7573ab550095fc44ac683f3584986125d1cb0f1"},
		{"s1423", "nocompact", 105, "204bfd1ca7b03d2d2c5b85172cb9f64a3d3bf596eb178f5b927dd1bcf69c1165"},
		{"s5378", "default", 97, "60a3c8cc34b128fdeeb3d06f175cd107b4f7820bc62d5fa942c545c1f4d87f7c"},
		{"s5378", "dynamic2", 85, "c1064975c14cdb7ffcd1ae02fb85a5ed937cc81ae01febe8f7da616f0960c14c"},
		{"s5378", "norandom", 99, "1587b6c1392a8c651c3fb887573134679abc752f16d84098af771661f390db23"},
		{"s5378", "nocompact", 169, "e35f23080ac4accd65fda1fa46cc9b7054878a697ea028e045d58f27c30bb274"},
		{"s13207", "default", 52, "bbcf222933d666c0502e0dd191ae7d4560241121f89ca88e20d26ad625264125"},
		{"s13207", "dynamic2", 52, "39323fe385d44f141b03e8cbfaa9444030b7b3c01e3ed2057b6c05323c649f44"},
		{"s13207", "norandom", 51, "63d2a021da455c4ca2b0eb3bd2f958fe9072d88c6423566929056839ad256320"},
		{"s13207", "nocompact", 77, "0accfd3bc2555fdf00858036f1c83a816be4e88a4610539be702b958f45d15a9"},
		{"s15850", "default", 72, "140048a13d86ca2057d1bbf8a614bd082d6eba4cacfcd8c316f6b07c2990de95"},
		{"s15850", "dynamic2", 66, "6b9345ea99f3b85fcfa59a0cea1f979a48a2165df964d31fc5b1f8d5bfe59f39"},
		{"s15850", "norandom", 65, "96f5b6f045db12350ffc36f6baf2b49228906b374ee1dce20b7bdbf6f34c5481"},
		{"s15850", "nocompact", 141, "5cc630a869eb8e1af0cf19937bc3a30e1b9f03cda253837778f65effa4dc6e85"},
	}
	for _, w := range want {
		t.Run(w.circuit+"/"+w.options, func(t *testing.T) {
			opts := DefaultOptions()
			digestOptionSets[w.options](&opts)
			res := Generate(standin(t, w.circuit), opts)
			if got := resultDigest(res); len(res.Patterns) != w.patterns || got != w.digest {
				t.Errorf("%d patterns, digest %s; want %d patterns, digest %s",
					len(res.Patterns), got, w.patterns, w.digest)
			}
		})
	}
}
