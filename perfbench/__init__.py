"""REPOSE benchmark package (see README.md)."""
