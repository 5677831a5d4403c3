package experiments

import "testing"

// TestE18WireModes smoke-tests the cold and big modes at a small size so the
// full-transfer and chunked-streaming loops stay exercised end to end.
func TestE18WireModes(t *testing.T) {
	for _, mode := range []WirePathMode{WireCold, WireBig} {
		rounds := 8
		if mode == WireBig {
			rounds = 2
		}
		res, err := RunWireScaling(2, rounds, mode)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if res.Checkouts != 2*rounds || res.OpsPerSec() <= 0 {
			t.Fatalf("%s: implausible result %+v", mode, res)
		}
	}
}
