package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
)

// fingerprint is what a reader needs to know before comparing two outputs:
// the numbers only mean the same thing on the same kind of machine, kernel
// path and filesystem.
type fingerprint struct {
	NProc      int               `json:"nproc"`
	GoMaxProcs int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	Kernel     string            `json:"kernel"`
	Commit     string            `json:"commit"`
	Seed       int64             `json:"seed"`
	BatchCaps  map[string]string `json:"batch_caps"`
	JournalFS  string            `json:"journal_fs"`
	// StealJiffies is CPU time the hypervisor gave to someone else during
	// the run (/proc/stat "steal"); a large value explains a slow run.
	StealJiffies uint64 `json:"steal_jiffies"`
}

func newFingerprint(seed int64) fingerprint {
	fp := fingerprint{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		Commit:     "unknown",
		Seed:       seed,
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(b))
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				fp.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					fp.Commit += "+dirty"
				}
			}
		}
	}
	return fp
}

func (fp fingerprint) String() string {
	if fp.JournalFS == "" {
		fp.JournalFS = "none (no round journaled)"
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s linux %s commit=%s seed=%d\n"+
		"batch caps: sender=%s relay=%s receiver=%s  journal fs: %s  cpu steal: %d jiffies",
		fp.NProc, fp.GoMaxProcs, fp.GoVersion, fp.Kernel, fp.Commit, fp.Seed,
		fp.BatchCaps["sender"], fp.BatchCaps["relay"], fp.BatchCaps["receiver"],
		fp.JournalFS, fp.StealJiffies)
}

// stealJiffies reads the aggregate steal counter from /proc/stat, zero where
// there is none.
func stealJiffies() uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	// cpu user nice system idle iowait irq softirq steal …
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseUint(f[8], 10, 64)
	return n
}

// fsName names the filesystem holding dir ("" for no dir).
func fsName(dir string) string {
	if dir == "" {
		return ""
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("fs-%#x", uint32(st.Type))
}

// outDir is where the benchmark may write (span files, journals): out/
// beside its sources, whether it was started from the repository root or
// from bench/ itself.
func outDir() (string, error) {
	dir := "out"
	if _, err := os.Stat("bench/go.mod"); err == nil {
		dir = "bench/out"
	}
	return dir, os.MkdirAll(dir, 0o755)
}
