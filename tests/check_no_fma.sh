#!/bin/sh
# Fails when any fedra library under LIBDIR contains a fused multiply-add.
# The SIMD tiers of tensor/ops, nn/fused and sim/fleet_pricing are
# bit-identical to their scalar oracles only while every multiply and add
# rounds separately, which src/CMakeLists.txt enforces with
# -ffp-contract=off; this check sees the compiled result.
#
#   check_no_fma.sh OBJDUMP LIBDIR
objdump=$1
libdir=$2
libs=$(find "$libdir" -name 'libfedra_*.a' | sort)
if [ -z "$libs" ]; then
  echo "no libfedra_*.a under $libdir"
  exit 1
fi
status=0
for lib in $libs; do
  count=$("$objdump" -d "$lib" | grep -cE '[[:space:]]vfn?m(add|sub)')
  if [ "$count" -ne 0 ]; then
    echo "FAIL $lib: $count FMA instructions"
    status=1
  else
    echo "ok   $lib"
  fi
done
exit $status
