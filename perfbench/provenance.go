package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// provenance locates a result: the source revision it measured and the
// host shape it ran on.
type provenance struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// Revision is the git commit when the tree is a git checkout, else
	// the SHA-256 of the Go sources (RevisionSource says which).
	Revision       string `json:"revision"`
	RevisionSource string `json:"revision_source"`
	// Dirty: the git work tree differs from Revision (always false for a
	// source hash, which names the tree as measured).
	Dirty      bool   `json:"dirty"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Workers    int    `json:"workers"`
}

func getProvenance(o options) provenance {
	p := provenance{
		Workload: o.workload, Seed: o.seed,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), Workers: o.workers,
	}
	if rev, dirty, ok := gitRevision(o.root); ok {
		p.Revision, p.RevisionSource, p.Dirty = rev, "git", dirty
		return p
	}
	p.Revision, p.RevisionSource = sourceHash(o.root), "source-sha256"
	return p
}

// gitRevision asks git only when root itself holds the repository, so a
// checkout nested in some other repository never reports that one.
func gitRevision(root string) (rev string, dirty, ok bool) {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "", false, false
	}
	abs, err := filepath.Abs(root)
	if err != nil {
		return "", false, false
	}
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", append([]string{"-C", abs}, args...)...)
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(abs))
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	rev, err = git("rev-parse", "HEAD")
	if err != nil || rev == "" {
		return "", false, false
	}
	st, err := git("status", "--porcelain", "--untracked-files=no")
	if err != nil {
		return "", false, false
	}
	return rev, st != "", true
}

// sourceHash is the SHA-256 over go.mod and every .go/.s file under
// internal/ and perfbench/, in path order.
func sourceHash(root string) string {
	var files []string
	for _, dir := range []string{"internal", "perfbench"} {
		filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && (strings.HasSuffix(path, ".go") || strings.HasSuffix(path, ".s")) {
				files = append(files, path)
			}
			return nil
		})
	}
	files = append(files, filepath.Join(root, "go.mod"))
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		h.Write([]byte(filepath.ToSlash(rel) + "\x00"))
		h.Write(b)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}
