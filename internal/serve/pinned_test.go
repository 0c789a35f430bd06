package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// memLoopAsm stores, reloads and sums a countdown through memory, so
// every vn-family machine reports nonzero memory, crossbar, cluster and
// bank counters, then stores the sum at ResultAddr.
const memLoopAsm = `        li   r1, 0
        li   r2, 12
        li   r5, 100
loop:   st   r2, r5, 0
        ld   r3, r5, 0
        add  r1, r1, r3
        addi r2, r2, -1
        bne  r2, r0, loop
        li   r4, 64
        st   r1, r4, 0
        halt
`

// TestResponseBytesPinned pins the status and body bytes of /v1/run for
// one spec per machine, plus a max_cycles 422 and an address-fault 422,
// as SHA-256 digests. Under go test the code version is "unknown", so the
// bodies are deterministic. The ttda and vn specs run past one
// sliceCycles slice, so the sliced run loop is pinned too.
func TestResponseBytesPinned(t *testing.T) {
	const faultAsm = "li r1, 7\nli r2, 4294967360\nst r1, r2, 0\nhalt\n"
	sumLoop := "def main(n) = (initial s <- 0 for i from 1 to n do new s <- s + i return s);"
	cases := []struct {
		name string
		spec *JobSpec
		want string
	}{
		{"ttda", &JobSpec{Kind: KindMiniID, Machine: "ttda", Program: sumLoop, Args: []int64{2500}},
			"76f5ab88fa80266218315ae7c40c144d124e544d3fe64ab21b4b884f19c863b8"},
		{"interp", &JobSpec{Kind: KindMiniID, Machine: "interp", Program: sumLoop, Args: []int64{100}},
			"f0f60cfe7bdccb00a46fcc9b3c22cdae1f4d075ef13c2c07cb13be79847d47a6"},
		{"direct", &JobSpec{Kind: KindMiniID, Machine: "direct", Program: sumLoop, Args: []int64{100}},
			"36ec72336cf1b87946f9a98a41853a1dfb8a914c721f1887f6fec42ec5b1d72d"},
		{"vn", &JobSpec{Kind: KindVNAsm, Machine: "vn", Program: countdownAsm, Config: &Config{Contexts: 2}},
			"268aea8ec2c4242ed975aa2760ca1dc7af9126a905054f4d26338d9f3ea1db0e"},
		{"cmmp", &JobSpec{Kind: KindVNAsm, Machine: "cmmp", Program: memLoopAsm},
			"ebba399465c8a6c39826370a17579a383ea3300e9ec5449fbd5e4c74fe464c62"},
		{"cmstar", &JobSpec{Kind: KindVNAsm, Machine: "cmstar", Program: memLoopAsm},
			"55eae22db5440f9f3a6257f6b40a7511ea85b19f3ce1d200ec28657459d2e197"},
		{"ultra/combining", &JobSpec{Kind: KindVNAsm, Machine: "ultra", Program: memLoopAsm, Config: &Config{Combining: true}},
			"6c1e159a59335f81f4a59d32176f91427d65cc7ec1a022156f78c43f30687d55"},
		{"ultra/plain", &JobSpec{Kind: KindVNAsm, Machine: "ultra", Program: memLoopAsm},
			"91e89b5e9b7fa76ca3b902642a7225b7e2194fba2c1e603415c382580cb20afb"},
		{"hep", &JobSpec{Kind: KindVNAsm, Machine: "hep", Program: memLoopAsm},
			"66695ac5bc81b99d3f16d2a6ae673bf2aa70fc92862843b63c943c553a6dcbe1"},
		{"max_cycles", &JobSpec{Kind: KindVNAsm, Machine: "cmmp", Program: spinAsm, Config: &Config{MaxCycles: 50_000}},
			"cdcd91668783ec09bc9e5fd815463cde0561cfd015afa30816a3ab4f0477a44d"},
		{"address fault", &JobSpec{Kind: KindVNAsm, Machine: "vn", Program: faultAsm},
			"5f645acac3d9c5184c6498bd0b7c2048d674d2af91820c4628a8ec9468dbdb87"},
		{"cmmp address fault", &JobSpec{Kind: KindVNAsm, Machine: "cmmp", Program: faultAsm},
			"f944852fa0b876da9105625d039c8ca036247921358234d2c11d4127e50977a8"},
	}
	s := newTestServer(t, Options{})
	for _, tc := range cases {
		rr := doJSON(t, s, "POST", "/v1/run", specBody(t, tc.spec))
		sum := sha256.Sum256([]byte(fmt.Sprintf("%d\n%s", rr.Code, rr.Body.Bytes())))
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: digest %s, want %s\n%d %s", tc.name, got, tc.want, rr.Code, rr.Body)
		}
	}
}
