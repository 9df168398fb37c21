// Command nullproc does nothing. The benchmark times its start as the
// host's speed of starting a Go process, and reports set-up time in
// units of it (see setupTimes).
package main

func main() {}
