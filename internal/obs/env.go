package obs

import (
	"runtime"
	"runtime/debug"
	"strconv"
)

// EnvMeta describes the execution environment of the process — the metadata
// that makes a benchmark or metrics record from one host comparable with a
// record from another. A single-core container and a 32-way server produce
// indistinguishable parity numbers otherwise.
func EnvMeta() map[string]string {
	meta := map[string]string{
		"go_version": runtime.Version(),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"num_cpu":    strconv.Itoa(runtime.NumCPU()),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
	if rev := VCSRevision(); rev != "" {
		meta["vcs_revision"] = rev
	}
	return meta
}

// VCSRevision returns the VCS revision stamped into the binary by the go
// tool, with "+dirty" appended when the build tree had uncommitted changes
// (empty when the build carries no VCS info, e.g. plain `go test`).
func VCSRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	return vcsRevision(info.Settings)
}

// vcsRevision reads the revision out of a binary's build settings.
func vcsRevision(settings []debug.BuildSetting) string {
	var rev, modified string
	for _, s := range settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value
		}
	}
	if rev != "" && modified == "true" {
		rev += "+dirty"
	}
	return rev
}

// RecordEnvInfo publishes EnvMeta as the imtao_env_info metric on r, so a
// Prometheus snapshot records which build and host produced it.
func RecordEnvInfo(r *Registry) {
	r.Info("imtao_env_info", "build and host environment of this process", EnvMeta())
}
