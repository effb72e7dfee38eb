module pref/benchmark

go 1.22

require pref v0.0.0

replace pref => ../
