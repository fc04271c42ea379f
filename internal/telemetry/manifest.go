package telemetry

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// Manifest records a run's provenance: what was run, with which
// configuration, from which source revision, and when (WALL time — the
// only wall-clock value in the telemetry layer; every trace timestamp is
// simulated μs).
type Manifest struct {
	// Tool is the command name (annealsim, hybridmimo, …).
	Tool string `json:"tool"`
	// Flags maps every flag to its effective value (defaults included),
	// so a manifest alone reproduces the run.
	Flags map[string]string `json:"flags,omitempty"`
	// GoVersion and GOOS/GOARCH pin the toolchain.
	GoVersion string `json:"go_version"`
	Platform  string `json:"platform"`
	// GitRevision is the VCS commit baked into the binary by `go build`.
	// Binaries without that stamp (`go run`, test binaries) take it from
	// $REPRO_GIT_REVISION, else report "unknown". GitModified reports a
	// dirty working tree (stamped binaries only).
	GitRevision string `json:"git_revision"`
	GitModified bool   `json:"git_modified,omitempty"`
	// StartedAt is the wall-clock start (RFC 3339, UTC).
	StartedAt string `json:"started_at"`
}

// GitRevisionEnv names the environment variable that supplies the git
// revision to binaries built without a VCS stamp; scripts/benchdiff.sh
// sets it from `git rev-parse HEAD` so benchmark records locate
// themselves in history.
const GitRevisionEnv = "REPRO_GIT_REVISION"

// NewManifest builds a manifest for the named tool from the global flag
// set (call after flag.Parse) and the binary's build info, falling back
// to $REPRO_GIT_REVISION for the revision when the binary has none.
func NewManifest(tool string) *Manifest {
	m := &Manifest{
		Tool:        tool,
		Flags:       make(map[string]string),
		GoVersion:   runtime.Version(),
		Platform:    runtime.GOOS + "/" + runtime.GOARCH,
		GitRevision: "unknown",
		StartedAt:   time.Now().UTC().Format(time.RFC3339),
	}
	flag.VisitAll(func(f *flag.Flag) {
		m.Flags[f.Name] = f.Value.String()
	})
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				m.GitRevision = s.Value
			case "vcs.modified":
				m.GitModified = s.Value == "true"
			}
		}
	}
	if rev := os.Getenv(GitRevisionEnv); rev != "" && m.GitRevision == "unknown" {
		m.GitRevision = rev
	}
	return m
}

// WriteJSON writes the manifest as one indented JSON object.
func (m *Manifest) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
