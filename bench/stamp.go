package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/buildinfo"
)

// stamp records what a number was measured on, so two outputs can be told
// apart or matched up: the host's CPUs, the Go version, the seed, how long
// each phase ran, and the code version.
type stamp struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Trace       bool               `json:"trace"`
	Seconds     float64            `json:"seconds"`
	Nproc       int                `json:"nproc"`
	GoMaxProcs  int                `json:"gomaxprocs"`
	GoVersion   string             `json:"go_version"`
	CodeVersion string             `json:"code_version"`
	Phases      map[string]float64 `json:"phases_s"`
}

func newStamp(o options) *stamp {
	return &stamp{
		Workload:    o.workload,
		Seed:        o.seed,
		Trace:       o.trace,
		Seconds:     o.seconds,
		Nproc:       nproc,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		CodeVersion: codeVersion(),
		Phases:      map[string]float64{},
	}
}

// codeVersion is buildinfo's VCS stamp. Binaries built without VCS
// metadata report "unknown" there, so it falls back to git (with a dirty
// flag), and outside a git checkout to a digest of the module's Go sources
// under the working directory.
func codeVersion() string {
	if v := buildinfo.CodeVersion(); v != "unknown" {
		return v
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		v := strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(bytes.TrimSpace(st)) > 0 {
			v += "+dirty"
		}
		return v
	}
	if d := sourceDigest("."); d != "" {
		return "src-" + d
	}
	return "unknown"
}

// sourceDigest hashes go.mod and every .go file under root, in path order,
// or returns "" when root holds no go.mod.
func sourceDigest(root string) string {
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return ""
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\n")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return ""
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}
