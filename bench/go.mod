module aide/bench

go 1.24

require aide v0.0.0

replace aide => ../
