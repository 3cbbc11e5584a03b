"""Outside-in benchmark of the reproduction: catalog sweeps, the
prediction service and the fleet simulator, end to end and per layer.

See ``bench/README.md``; run ``python -m bench run`` from the root of a
checkout.
"""
