package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask, wide enough for 1024 CPUs.
type cpuMask [16]uint64

func (m *cpuMask) has(cpu int) bool { return m[cpu/64]&(1<<(cpu%64)) != 0 }

func affinity(tid int) (cpuMask, error) {
	var m cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return m, errno
	}
	return m, nil
}

func setAffinity(tid int, m *cpuMask) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if errno != 0 {
		return errno
	}
	return nil
}

// pinProcess confines every thread of this process — and with them every
// child it starts, whose threads inherit the mask and whose Go runtime
// sizes GOMAXPROCS from it — to one CPU, the highest one the process may
// use (the lowest takes most of the machine's interrupts). It returns that
// CPU.
//
// Why one CPU: the reference box is a 2-vCPU virtual machine, and a request
// that crosses from one vCPU to the other pays an inter-processor interrupt
// and often the wake-up of a halted vCPU, both of which the hypervisor
// serves in a time that drifts by tens of per cent over minutes. A loopback
// ping-pong between two threads spread 39 % run to run unpinned and 3 % on
// one CPU, where a wake-up is a plain context switch; README.md has the
// measurements. On one CPU the benchmark measures the work a request
// costs, not how this host schedules two vCPUs.
func pinProcess() (int, error) {
	// One P, so the Go scheduler does not multiplex two run queues over
	// the one CPU.
	runtime.GOMAXPROCS(1)
	allowed, err := affinity(0)
	if err != nil {
		return 0, fmt.Errorf("sched_getaffinity: %w", err)
	}
	cpu := -1
	for c := len(allowed)*64 - 1; c >= 0; c-- {
		if allowed.has(c) {
			cpu = c
			break
		}
	}
	if cpu < 0 {
		return 0, fmt.Errorf("empty CPU affinity mask")
	}
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	// A thread created while the tasks are being walked inherits its
	// creator's mask, pinned or not; walk until a pass changes nothing.
	for pass := 0; pass < 10; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return 0, err
		}
		changed := false
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			cur, err := affinity(tid)
			if err != nil {
				continue // the thread ended meanwhile
			}
			if cur == one {
				continue
			}
			if err := setAffinity(tid, &one); err != nil && err != syscall.ESRCH {
				return 0, fmt.Errorf("sched_setaffinity(%d): %w", tid, err)
			}
			changed = true
		}
		if !changed {
			return cpu, nil
		}
	}
	return 0, fmt.Errorf("threads kept appearing unpinned")
}
