"""Sector-level food-security and poverty proxy indicators from mobile
phone records (calls and airtime top-ups) validated against household
survey data."""

__version__ = "0.1.0"
