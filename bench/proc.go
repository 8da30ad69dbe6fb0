package main

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// cpuSeconds is the process's user+system CPU time so far (getrusage).
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// procStatusKB reads one "<key>:  <n> kB" line of /proc/self/status
// (VmHWM, the resident-set high-water mark, is the one used).
func procStatusKB(key string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key+":"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				n, _ := strconv.ParseFloat(fields[0], 64)
				return n
			}
		}
	}
	return 0
}

// peakRSSMB is VmHWM in MiB; where /proc is missing it falls back to
// getrusage's maxrss (KiB on Linux).
func peakRSSMB() float64 {
	if kb := procStatusKB("VmHWM"); kb > 0 {
		return kb / 1024
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// cpuTicks reads the machine-wide CPU counters of /proc/stat: ticks
// spent not idle (I/O wait counts as busy: the disk is working), and all
// ticks. ok is false where /proc is missing.
func cpuTicks() (busy, total uint64, ok bool) {
	fields := strings.Fields(firstLine("/proc/stat"))
	if len(fields) < 5 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += n
		if i != 3 { // idle
			busy += n
		}
	}
	return busy, total, true
}

func firstLine(path string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Scan()
	return sc.Text()
}

// quiesce puts the box in the state every measurement starts from: a
// quiet disk (settle) and awake cores (warmCPU).
func quiesce() {
	settle()
	warmCPU()
}

// settle flushes dirty data and then waits, three seconds at most,
// until the whole box has been idle for a tenth of a second: the process
// that ran before this one — as a rule another run of this benchmark —
// leaves the kernel deleting thousands of files and writing back.
func settle() {
	syscall.Sync()
	for deadline := time.Now().Add(3 * time.Second); time.Now().Before(deadline); {
		busy0, total0, ok := cpuTicks()
		if !ok {
			return
		}
		time.Sleep(100 * time.Millisecond)
		busy1, total1, _ := cpuTicks()
		if total1 > total0 && float64(busy1-busy0) <= 0.05*float64(total1-total0) {
			return
		}
	}
}

// warmCPU keeps every core busy for a second. The reference box clocks
// its cores by recent load: straight after a run that mostly waited for
// the disk, CPU-bound work is a quarter to a half slower for the first
// second or two than after a run that kept the cores busy (store.Open of
// firehose's preload: 110 ms after a trickle run, 73 ms after a firehose
// run, 71 ms after a trickle run and this second of spinning). A
// measurement must not depend on what ran before it.
func warmCPU() {
	const d = time.Second
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(1)
			for time.Now().Before(deadline) {
				for j := 0; j < 1<<16; j++ {
					x = x*6364136223846793005 + 1442695040888963407
				}
			}
			runtime.KeepAlive(x)
		}()
	}
	wg.Wait()
}

// dirBytes sums the sizes of the regular files under root.
func dirBytes(root string) int64 {
	var total int64
	filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}

func firstLineValue(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// gitCommit resolves HEAD by reading .git directly (no subprocess); a
// checkout that is not a repository reports "unknown".
func gitCommit() string {
	head := readTrim(".git/HEAD")
	if ref, ok := strings.CutPrefix(head, "ref: "); ok {
		return readTrim(filepath.Join(".git", ref))
	}
	return head
}

// conditions is the block every result file carries so a number can be
// read without knowing how the run was made.
func conditions(c *config) map[string]any {
	return map[string]any{
		"fsync":        "store.Options.Fsync=true (provd default) except firehose, see README",
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"nproc":        runtime.NumCPU(),
		"cpu_model":    firstLineValue("/proc/cpuinfo", "model name"),
		"go_version":   runtime.Version(),
		"kernel":       readTrim("/proc/sys/kernel/osrelease"),
		"filesystem":   fsType(c.dir),
		"seed":         c.seed,
		"seconds":      c.seconds,
		"trace":        c.trace,
		"git_commit":   gitCommit(),
		"max_workers":  2,
		"client_conns": 2,
	}
}
