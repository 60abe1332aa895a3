package main

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// Env is the provenance every result carries: enough to tell two result
// files apart and to refuse comparing numbers from different machines.
type Env struct {
	Commit           string `json:"git_commit"`
	GoVersion        string `json:"go_version"`
	ServerGOMAXPROCS string `json:"server_gomaxprocs"`
	NProc            int    `json:"nproc"`
	CPUModel         string `json:"cpu_model"`
	Kernel           string `json:"kernel"`
	LoadAvg          string `json:"loadavg_at_start"`
	Timestamp        string `json:"timestamp"`
	Seed             int64  `json:"seed"`
	ServerCmd        string `json:"server_command"`
}

func collectEnv(root string, seed int64) Env {
	e := Env{
		Commit: "unknown", GoVersion: runtime.Version(), ServerGOMAXPROCS: serverGOMAXPROCS,
		NProc: runtime.NumCPU(), CPUModel: "unknown", Kernel: "unknown", LoadAvg: "unknown",
		Timestamp: time.Now().UTC().Format(time.RFC3339), Seed: seed,
	}
	// A driver's checkout is not a git repository; "unknown" is the honest
	// answer there.
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if blob, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(blob), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if blob, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(blob))
	}
	if blob, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(blob)); len(f) >= 3 {
			e.LoadAvg = strings.Join(f[:3], " ")
		}
	}
	return e
}
