"""An empty layer: the benchmark's tracer (``perfbench/tracer.py``) lists
``seriesaccel`` in its LAYERS and reads it from ``sys.modules``."""
