"""Executable specifications the production engines are checked against."""
