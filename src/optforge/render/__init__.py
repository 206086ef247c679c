"""Rendering: prompts in Python and LaTeX styles, and answer programs."""
