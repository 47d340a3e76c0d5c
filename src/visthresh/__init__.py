"""Learning local distortion-visibility thresholds from image quality scores."""
