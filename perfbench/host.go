package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
)

// hostInfo is recorded with every run, so a number is never read
// without the machine and the code that produced it.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	// Commit is the VCS revision stamped into the binary, or "unknown"
	// when it was built outside a repository.
	Commit string `json:"commit"`
	// Source is a SHA-256 over the module's Go sources and go.mod, which
	// identifies the code measured even where there is no commit.
	Source   string  `json:"source_sha256"`
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
}

func newHostInfo(root string) hostInfo {
	h := hostInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: cpuModel(), Go: runtime.Version(), Commit: "unknown",
		Source: sourceDigest(root),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every .go file and go.mod under root, by path
// and content in path order, skipping hidden and build directories.
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			return "unknown"
		}
		io.WriteString(h, p+"\x00")
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMB is the process's peak resident set size, since the last
// resetPeakRSS where the kernel supports resetting it, else since the
// process started.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// resetPeakRSS returns freed memory to the OS and restarts the peak
// RSS count from the current resident set, so the set-ups' garbage does
// not count toward the timed phase's peak.
func resetPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets the peak RSS (Linux 4.0 and
	// later); where it fails, peakRSSMB reports the lifetime peak.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
