package main

import "syscall"

// childAttr makes the kernel kill the server if the benchmark dies without
// reaching its own cleanup, so no run leaves a process behind.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
