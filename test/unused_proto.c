int f(int);
int main(void) { return 3; }
