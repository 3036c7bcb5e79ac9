"""Seniority-symmetric quantum subspace expansion emulator."""
