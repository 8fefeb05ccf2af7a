package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// spinWindow is how long before a due time sleepUntil stops sleeping
// and polls the clock instead: longer than the kernel's default timer
// slack (50 µs) plus a wake-up, so the sleep rarely overshoots.
const spinWindow = 100 * time.Microsecond

// sleepUntil blocks until t: in nanosleep until spinWindow before it,
// then polling the clock. Go timers are not used: with idle Ps the
// runtime rounds a sub-millisecond timer up to a 1 ms epoll timeout,
// which would make the generator, not the system, dominate initiation
// latency, and a generator spinning on the scheduler would fire the
// system's own timers early. The poll holds one P for at most
// spinWindow per arrival.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t) - spinWindow
		if d <= 0 {
			break
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop re-sleeps the remainder
	}
	for time.Now().Before(t) {
	}
}

// resetPeakRSS collects the garbage, returns it to the kernel and resets
// the process's resident-set high-water mark (VmHWM) to what is resident
// now, so that peakRSSMB reports the peak of the phase that follows,
// not that of the set-up before it.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reports the resident-set high-water mark (VmHWM) since the
// last resetPeakRSS, in MB; 0 when unreadable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// fsName names the filesystem holding dir, from statfs's magic number.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x01021994: "tmpfs", 0x794c7630: "overlay",
		0x9123683E: "btrfs", 0x2FC12FC1: "zfs", 0x6969: "nfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// fsyncP50 writes and fsyncs a 4 KiB block n times in dir and returns
// the median fsync time in microseconds: the machine's durability cost,
// against which the storage-bound workload's numbers are read.
func fsyncP50(dir string, n int) (float64, error) {
	path := filepath.Join(dir, "fsync-probe")
	f, err := os.Create(path)
	if err != nil {
		return 0, fmt.Errorf("fsync probe: %w", err)
	}
	defer os.Remove(path)
	defer f.Close()
	block := make([]byte, 4096)
	us := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if _, err := f.WriteAt(block, int64(i%16)*4096); err != nil {
			return 0, fmt.Errorf("fsync probe: %w", err)
		}
		start := time.Now()
		if err := f.Sync(); err != nil {
			return 0, fmt.Errorf("fsync probe: %w", err)
		}
		us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
	}
	return median(us), nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total
}
