# Kept because perfbench/child.py records _accel.USE_NUMBA in its run
# manifest; the kernels have a single build, so it is always False.
USE_NUMBA = False
