"""Self-structuring RBMs for time-series data.

Energy-based sequence models whose hidden layer grows while gradients
keep fluctuating, shrinks when units fall silent, sparsifies under
forgetting penalties, and stacks itself into a deep network when one
layer is not enough.
"""
__version__ = "0.1.0"
