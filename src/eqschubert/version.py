__version__ = "0.1.0"

# Stamped into cache headers and file names; a bump invalidates every cached table.
ENGINE_VERSION = __version__
CACHE_VERSION = 2
