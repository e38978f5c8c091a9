"""punchsim benchmark harness; see README.md."""
