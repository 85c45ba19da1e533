package srv

import "testing"

// keySOC is a small inline .soc profile for the tdv and lint key pins.
const keySOC = `soc keyed
tmono 0
module Top(top) i 8 o 6 b 0 s 0 t 4 children A,B
module A i 5 o 3 b 1 s 120 t 40
module B i 2 o 2 b 0 s 64 t 25
top Top(top)
`

// TestWorkKeysPinned pins the content address of one request per served
// kind. A store filled by an earlier daemon must keep hitting, so a
// change to any expected key orphans every cached artifact of that kind.
// Journal replay must rebuild the same address from the canonical
// request JSON.
func TestWorkKeysPinned(t *testing.T) {
	tmono := 300
	s, _ := newTestServer(t, Config{Workers: 1})
	for _, tc := range []struct {
		name string
		kind string
		req  any
		want string
	}{
		{"atpg standin", "atpg", &atpgRequest{Standin: "s713"},
			"f6ffc4ca377a7cf9b4b999f8026872d81184719fe085b99b969425746197de25"},
		{"atpg inline", "atpg", &atpgRequest{Bench: tinyBench},
			"c66baff15440f22c595f5749503c72443d692483dd212ddf8c2fa88adb88f360"},
		{"tdv builtin", "tdv", &tdvRequest{Builtin: "d695"},
			"3f7dfbaf7f8692c4dba21d927e8e7588eec8157f13e5112dc28d517b400ca0ac"},
		{"tdv inline tmono", "tdv", &tdvRequest{SOC: keySOC, TMono: &tmono},
			"8e5be3ed8cdb452e49e926fa3e4bdb3fec7909853ce983443cdf4a8d6976531a"},
		{"lint bench", "lint", &lintRequest{Bench: tinyBench},
			"f71dcbddc2e3338e0f6fad6b892e44c9e4596ae2b48178fcb6ad5bb2c9478d11"},
		{"lint soc", "lint", &lintRequest{SOC: keySOC},
			"399555a06b0973f65ed26e77345a6a3eddd36741dd4ed757be204f82fb504b76"},
		{"schedule d695", "schedule", &scheduleRequest{
			Builtin: "d695", TAM: 32, PowerBudget: 5000,
			Precedence: [][2]string{{"d695-core5", "d695-core1"}, {"d695-core2", "d695-core9"}},
		}, "167d0ab3eb6ff9de6465af6850c8c1e8c9524687de48f04432d75950a543d373"},
	} {
		var built []work
		for _, k := range kinds {
			if k.name == tc.kind {
				wk, _, err := k.build(s, tc.req)
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				built = append(built, wk)
			}
		}
		if len(built) != 1 {
			t.Fatalf("%s: %d table entries for kind %q, want 1", tc.name, len(built), tc.kind)
		}
		wk := built[0]
		if wk.kind != tc.kind || wk.key != tc.want {
			t.Errorf("%s: %s key %q, want %s key %q", tc.name, wk.kind, wk.key, tc.kind, tc.want)
		}
		replayed, err := replayWork(s, tc.kind, marshalReq(tc.req))
		if err != nil {
			t.Fatalf("%s: replay: %v", tc.name, err)
		}
		if replayed.key != wk.key {
			t.Errorf("%s: replayed key %q, built key %q", tc.name, replayed.key, wk.key)
		}
	}
}
