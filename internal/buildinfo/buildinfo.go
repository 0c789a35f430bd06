// Package buildinfo stamps produced artifacts — benchmark JSON documents,
// cache keys, served results — with the code revision that produced them.
// The stamp is what makes the content-addressed result cache honest: two
// binaries built from different revisions must never share cache entries,
// because a simulator change that moves a single cycle count would
// otherwise be served stale results forever.
package buildinfo

import "runtime/debug"

// CodeVersion identifies the producing binary from its embedded build
// info: the VCS revision (suffixed +dirty when the tree was modified) when
// the toolchain recorded one, else the main module version, else
// "unknown". Only `go build` and `go install` inside a git checkout
// record a revision; `go run` and `go test` binaries never do, so they all
// report "unknown" and share cache entries only with each other.
func CodeVersion() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	var rev, modified string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value
		}
	}
	if rev != "" {
		if modified == "true" {
			return rev + "+dirty"
		}
		return rev
	}
	if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		return bi.Main.Version
	}
	return "unknown"
}
