module hostprof/bench

go 1.22

require hostprof v0.0.0

replace hostprof => ../
