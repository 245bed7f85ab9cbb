module blendhouse/benchmark

go 1.22

require blendhouse v0.0.0

replace blendhouse => ../
